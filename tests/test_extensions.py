"""`workbench._extensions` against the brute-force oracle
`conftest.brute_extensions`, which enumerates every injective assignment and
compares dependency kernels by Fraction row reduction: the same extensions,
in the same order, on seeded random small structures and on the catalog's
tasks searched through their plans."""

import random
from collections import Counter
from fractions import Fraction as F

import pytest

from bicolor.colored import ColoredStructure, empty_structure
from bicolor.pregeom import FREE, LINEAR, Backend, GroundElement
from bicolor.workbench import _extensions, build_generic, task_catalog

from conftest import ALL_ALPHAS, ALPHA_HALF, ALPHA_INV_SQRT2, brute_extensions, fraction_rref


def _vectors(rng, n, dim):
    """Nonzero vectors with exact duplicates, scaled copies and sums of
    earlier vectors mixed in."""
    out = []
    while len(out) < n:
        roll = rng.random()
        if out and roll < 0.15:
            v = rng.choice(out)
        elif out and roll < 0.3:
            scale = F(rng.choice([-2, -1, 2, 3])) / rng.choice([1, 2])
            v = tuple(scale * x for x in rng.choice(out))
        elif len(out) >= 2 and roll < 0.45:
            a, b = rng.sample(out, 2)
            v = tuple(x + y for x, y in zip(a, b))
        else:
            v = tuple(F(rng.randint(-2, 2), rng.choice([1, 1, 2])) for _ in range(dim))
        if any(v):
            out.append(v)
    return out


def _structure(rng, prefix, n, dim, kind, alpha):
    ids = [f"{prefix}{i}" for i in range(n)]
    vecs = _vectors(rng, n, dim) if kind == LINEAR else [None] * n
    colored = frozenset(i for i in ids if rng.random() < 0.4)
    backend = Backend(LINEAR, dim) if kind == LINEAR else Backend(FREE)
    return ColoredStructure(backend, tuple(map(GroundElement, ids, vecs)), colored, alpha)


def _rank(T, ids):
    rows = [[T.element(i).vec[r] for i in ids] for r in range(T.backend.ambient_dim)]
    return len(fraction_rref(rows)[0])


def _case(rng):
    """(small, big, base pairs, S, kind of base) for one random case."""
    kind = LINEAR if rng.random() < 0.8 else FREE
    alpha = rng.choice(ALL_ALPHAS)
    dim = rng.randint(1, 3)
    big = _structure(rng, "b", rng.randint(1, 4), dim, kind, alpha)
    S = _structure(rng, "s", rng.randint(0, 6), rng.randint(dim, 3), kind, alpha)
    if kind == LINEAR and rng.random() < 0.5:
        # Copies of big's payloads under one scale, zero-padded, among S's.
        scale, pad = F(rng.choice([1, -2, 3])), (F(0),) * (S.backend.ambient_dim - dim)
        copies = [
            GroundElement(f"c{e.id}", tuple(scale * x for x in e.vec) + pad)
            for e in big.elements if rng.random() < 0.8
        ]
        keep = S.elements[: 6 - len(copies)]
        colored = {g.id for g in copies if rng.random() < 0.5} | (S.colored & {e.id for e in keep})
        S = ColoredStructure(S.backend, (*keep, *copies), frozenset(colored), alpha)
    small_ids = sorted(rng.sample(big.ids_sorted, rng.randint(0, len(big) - 1)))
    small = big.restrict(small_ids)
    if len(small_ids) > len(S):
        small, base = big.restrict([]), {}
    elif not small_ids:
        base = {}
    elif rng.random() < 0.6:
        embeddings = brute_extensions(small, (), {}, S)
        if not embeddings:
            return None
        base = dict(rng.choice(embeddings))
    else:
        base = dict(zip(small_ids, rng.sample(S.ids_sorted, len(small_ids))))
    return small, big, tuple(sorted(base.items())), S


def test_matches_brute_force_in_order():
    rng = random.Random(0xE7E)
    seen = Counter()
    for _ in range(400):
        case = _case(rng)
        if case is None:
            continue
        small, big, base, S = case
        want = brute_extensions(big, small.id_set, dict(base), S)
        got = [g.pairs for g in _extensions(small, big, base, S)]
        assert got == want, (small, big, base, S)
        linear = big.backend.kind == LINEAR
        seen["free" if not linear else "linear"] += 1
        seen["found" if want else "none"] += 1
        if base and base not in brute_extensions(small, (), {}, S):
            seen["base-not-embedding"] += 1
        elif base and want:
            seen["base-extended"] += 1
        if linear and want and _rank(big, big.ids_sorted) < len(big):
            seen["dependent-and-found"] += 1
        if linear and any(
            a.vec == b.vec for a in big.elements for b in big.elements if a.id < b.id
        ):
            seen["exact-duplicate"] += 1
        if any(big.is_colored(a) != big.is_colored(b) for a in big.ids_sorted for b in big.ids_sorted):
            seen["mixed-colors"] += 1
    for what in (
        "free", "linear", "found", "none", "base-not-embedding", "base-extended",
        "dependent-and-found", "exact-duplicate", "mixed-colors",
    ):
        assert seen[what] >= 5, (what, seen)


@pytest.mark.parametrize("scale", [1, F(-3, 2)])
def test_dependent_prefix_needs_the_same_combination(scale):
    """x3 = x1 + scale*x2 in B: its image must be the same combination of the
    images of x1 and x2, among duplicates, scaled copies and other sums."""
    alpha = ALPHA_HALF
    v = lambda *xs: tuple(map(F, xs))
    big = ColoredStructure(
        Backend(LINEAR, 2),
        (GroundElement("x1", v(1, 0)), GroundElement("x2", v(0, 1)),
         GroundElement("x3", v(1, scale))),
        frozenset({"x3"}),
        alpha,
    )
    S = ColoredStructure(
        Backend(LINEAR, 3),
        tuple(GroundElement(f"s{i}", vec) for i, vec in enumerate([
            v(1, 0, 0), v(1, 0, 0), v(2, 0, 0), v(0, 1, 0), v(1, scale, 0), v(2, scale, 0),
            v(1, 2 * scale, 0), v(0, 0, 1), v(1, scale, 0),
        ])),
        frozenset({"s4", "s5", "s6", "s7"}),
        alpha,
    )
    small = big.restrict(["x1"])
    for base in ((), (("x1", "s0"),), (("x1", "s2"),)):
        small_b = small if base else big.restrict([])
        want = brute_extensions(big, small_b.id_set, dict(base), S)
        got = [g.pairs for g in _extensions(small_b, big, base, S)]
        assert got == want and want


@pytest.mark.parametrize("alpha", [ALPHA_HALF, ALPHA_INV_SQRT2], ids=["1/2", "1/sqrt2"])
def test_catalog_plans_on_duplicate_and_scaled_payloads(alpha):
    """Each catalog task at budget 2 (parallel-ext-plain's big side repeats
    its payload), searched through the task's own plan from every embedding
    of its small side, into a built structure plus exact duplicates and
    scaled copies of its points, gives the brute-force sequence."""
    built = build_generic(empty_structure(alpha, 0), 6, 2, 5)
    copies = []
    for k, e in enumerate(built.elements[:4]):
        copies.append(GroundElement(f"d{k}", e.vec))
        copies.append(GroundElement(f"t{k}", tuple(F(-3, 2) * x for x in e.vec)))
    S = built.extended(copies, new_colored=[g.id for g in copies[::3]])
    found = Counter()
    for task in task_catalog(alpha, 2):
        plan = task.search_plan()
        for base in brute_extensions(task.small, (), {}, S):
            want = brute_extensions(task.big, task.small.id_set, dict(base), S)
            got = [g.pairs for g in _extensions(task.small, task.big, base, S, plan)]
            assert got == want, (task.task_id, base)
            found[task.task_id] += len(want)
        assert task.search_plan() is plan
    assert found["parallel-ext-plain"] >= 4
    assert all(found[task.task_id] for task in task_catalog(alpha, 2))
