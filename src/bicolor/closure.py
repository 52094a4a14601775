"""Closedness, closure operators, minimal pairs, and the D-dimension.

A set X is closed in S when delta(A/X) >= 0 for every A within S; the closure
of A is the least closed superset.  `closure` finds it by one search: it
is A u L for L the least minimizer of f(C) = delta(C/A), the minimizer of
least size (`colored` module, lemma on the least minimizer: f is
submodular, so its minimizers are closed under intersection, and their
intersection L is contained in every closed superset of A, while A u L is
closed since delta(Y / A u L) = f(L u Y) - f(L) >= 0).
`closure_with_steps` reaches the same set as a fixpoint that repeatedly
adjoins the minimal violating witness (smallest size, ties broken
lexicographically on sorted ids), so its step count is deterministic.  All
notions are relative to the finite ambient structure.

D(A) is the minimum of delta over supersets of A inside the ambient.  It
equals delta(closure(A)) at every alpha, and that identity is asserted on
every call.  Proof: let C* attain D(A).  C* is closed, for a Y with
delta(Y/C*) < 0 would give the superset C* u Y of A a smaller delta, so
cl(A), the least closed superset of A, lies within C*.  cl(A) is closed, so
delta(C*) - delta(cl(A)) = delta(C*/cl(A)) >= 0, and delta(cl(A)) <= D(A)
<= delta(cl(A)).  The assertion compares two independent computations:
D(A) is delta(A) plus the value of `min_relative_delta`, whose walk
keeps a strict bar and stops at the first minimizer in lex order, while
delta(closure(A)) is a fresh reduction of the set `least_minimiser`
returns, whose walk orders its bar by (delta, size); a search that
returned a set other than a minimizer, or a wrong minimum, breaks it.
"""

from __future__ import annotations

import itertools

from .colored import (
    DEFAULT_NODE_BUDGET,
    ColoredStructure,
    delta,
    ensure_k_plus,
    least_minimiser,
    min_relative_delta,
    min_violating_witness,
)
from .errors import InputError, InvariantError
from .exactnum import ZERO, PreDimValue, compare, sign_memo
from .pregeom import FREE, coordinate_rows, dim_independent as _dim_indep_elements, suffix_rank_bound, walk


def _require_subset(small, big, what: str):
    if not small <= big:
        raise InputError(f"{what}: {sorted(small - big)} outside the larger set")


def closed_with_witness(x_ids, S: ColoredStructure, node_budget=DEFAULT_NODE_BUDGET):
    """(closed?, minimal violating witness or None)."""
    x = S.check_ids(x_ids)
    ensure_k_plus(S, node_budget)
    w = min_violating_witness(S, x, node_budget=node_budget)
    return (w is None), w


def is_closed(x_ids, S: ColoredStructure, node_budget=DEFAULT_NODE_BUDGET) -> bool:
    return closed_with_witness(x_ids, S, node_budget)[0]


def closure_with_steps(a_ids, S: ColoredStructure):
    """(closure(A), steps) via the deterministic witness fixpoint."""
    cur, steps = S.check_ids(a_ids), 0
    ensure_k_plus(S)
    while (w := min_violating_witness(S, cur)) is not None:
        cur, steps = cur | w, steps + 1
    return cur, steps


def closure(a_ids, S: ColoredStructure) -> frozenset:
    """A u L for L the least minimiser of delta(./A) (module lemma), from
    one `least_minimiser` search."""
    a = S.check_ids(a_ids)
    ensure_k_plus(S)
    return a | least_minimiser(S, a)[1]


def is_intrinsic(a_ids, b_ids, S: ColoredStructure) -> bool:
    """True iff delta(B) < delta(A') for every A <= A' strictly inside B: with
    C = A' minus A, delta(B/A) < 0 (C empty) and delta(C/A) > delta(B/A),
    strictly, for every nonempty proper C (`_proper_subsets_hold` with the
    threshold delta(B/A), strict, pruned off the spine by the suffix-rank
    bound).  True for B = A."""
    return _proper_subsets_hold(S, a_ids, b_ids, True)


def _proper_subsets_hold(S: ColoredStructure, a_ids, b_ids, strict) -> bool:
    """For B - A nonempty: True iff delta(B/A) < 0 and, with floor = delta(B/A)
    if strict and 0 if not, delta(C/A) > floor (strict) or >= floor (not
    strict) for each nonempty proper subset C of B - A, off one `walk` that
    stops at a failure; for B = A, `strict`.  The rows of extra = sorted(B
    - A), reduced against span(A), go through `pregeom.coordinate_rows`,
    whose grown rows give dim(B/A), and the walk steps through their
    coordinate rows, which keep every rank.

    Lemma (plain points).  If delta(B/A) < 0 and B - A holds a plain point,
    both verdicts are False without a walk.  Proof: the colored part K of
    B - A has delta(K/A) = dim(K/A) - alpha * |K| <= dim(B/A) - alpha * |K|
    = delta(B/A) < 0, so K is nonempty, and proper for missing the plain
    point; it fails both thresholds, 0 and delta(B/A), strict.  So a plain
    point in B - A gives False before any reduction (with delta(B/A) >= 0
    both verdicts are False anyway), and the walk's (dim(C/A), bitmask of
    C) gives the colored count |C|.

    Each node is decided by `pre_dim_sign`: it meets the threshold when the
    sign of delta(C/A) - floor is at least `least_sign`, 1 if strict and 0
    if not.  A node on extra[:i] holding C that has skipped a row (|C| < i)
    has only proper subsets below it, and is not expanded once delta(C/A) -
    alpha * rho meets the threshold, rho = (n - i) - max(R_n - R_i, S_i -
    dim(C/A)) with R_i = dim(extra[:i] / A) and S_i = dim(extra[i:] / A)
    (`pregeom.suffix_rank_bound`): by the `colored` module's suffix-rank
    lemma every subset below it then meets it too.  B - A itself fails
    the threshold (delta(B/A) < 0, never so in the free backend); it
    lies below every spine node (one that has skipped no row), whose bound
    therefore never meets it, and the walk does not test them.
    """
    a = S.check_ids(a_ids)
    b = S.check_ids(b_ids)
    _require_subset(a, b, "is_intrinsic" if strict else "is_minimal_pair")
    extra = sorted(b - a)
    if not extra:
        return strict
    if S.backend.kind == FREE or not S.colored.issuperset(extra):
        return False
    base = S.reducer_for(a)
    grew, rows = coordinate_rows([base.residual(S.introw(e)) for e in extra])
    floor = PreDimValue(sum(grew), len(extra))
    if floor.sign(S.alpha) >= 0:
        return False
    floor = floor if strict else ZERO
    full = (1 << len(extra)) - 1
    _, red, null = suffix_rank_bound(rows, len(rows[0]), grew)
    fd, fc, alpha = floor.dim_part, floor.color_part, S.alpha
    least_sign = 1 if strict else 0
    sign_of = sign_memo(alpha)
    meets = lambda dim, col: sign_of(dim - fd, col - fc) >= least_sign
    prune = lambda i, dim, mask: mask != (1 << i) - 1 and meets(
        dim, mask.bit_count() + min(red[i], null[i] + dim)
    )
    for _, dim, mask, _ in walk(rows, prune):
        if 0 < mask < full and not meets(dim, mask.bit_count()):
            return False
    return True


def intrinsic_tower(a_ids, b_ids, S: ColoredStructure) -> list[frozenset]:
    """Tower A = B_0 c B_1 c ... c B_n = B with every (B_i, B_{i+1}) minimal.

    Requires B to be an intrinsic extension of A; each step adjoins the
    smallest violating set over the current level.
    """
    a = S.check_ids(a_ids)
    b = S.check_ids(b_ids)
    if not is_intrinsic(a, b, S):
        raise InputError("not an intrinsic extension; no tower exists")
    tower = [frozenset(a)]
    cur = frozenset(a)
    sub = S.restrict(b)
    while cur != b:
        w = min_violating_witness(sub, cur)
        if w is None:
            raise InvariantError("intrinsic extension with no violating step")
        cur = cur | w
        tower.append(cur)
    return tower


def is_minimal_pair(a_ids, b_ids, S: ColoredStructure) -> bool:
    """delta(B/A) < 0 while every proper intermediate stays nonnegative:
    `_proper_subsets_hold` with the threshold 0, not strict, pruned off the
    spine by the suffix-rank bound.  False for B = A."""
    return _proper_subsets_hold(S, a_ids, b_ids, False)


def closure_n(a_ids, S: ColoredStructure, n: int):
    """Union of intrinsic extensions of A adding fewer than n points."""
    a = S.check_ids(a_ids)
    ensure_k_plus(S)
    if n < 0:
        raise InputError("n must be a natural number")
    out = set(a)
    rest = sorted(S.id_set - a)
    for size in range(1, n):
        for combo in map(set, itertools.combinations(rest, size)):
            if not combo <= out and is_intrinsic(a, a | combo, S):
                out |= combo
    return frozenset(out)


def d_value_with_witness(a_ids, S: ColoredStructure):
    """D(A): exact minimum of delta(C) over supersets of A inside S."""
    a = S.check_ids(a_ids)
    ensure_k_plus(S)
    base = delta(S, a)
    rel_min, extra = min_relative_delta(S, a)
    val = base + rel_min
    if compare(val, delta(S, closure(a, S)), S.alpha) != 0:
        raise InvariantError("D(A) disagrees with delta(closure(A))")
    return val, frozenset(a | extra)


def d_value(a_ids, S: ColoredStructure) -> PreDimValue:
    return d_value_with_witness(a_ids, S)[0]


def big_cl(a_ids, S: ColoredStructure) -> frozenset:
    """CL(A): points whose adjunction leaves D unchanged."""
    a = S.check_ids(a_ids)
    da = d_value(a, S)
    return a | {e for e in S.ids_sorted if e not in a and compare(d_value(a | {e}, S), da, S.alpha) == 0}


def _relative_d(a, z, S):
    return d_value(a | z, S) - d_value(z, S)


def d_independent_report(a_ids, b_ids, z_ids, S: ColoredStructure) -> dict:
    """Both-route D-independence evaluation with the closed-base cross-check.

    Route one is the definition: D(A/Z) = D(A/ZB) plus cl(AZ) n cl(BZ) =
    cl(Z).  When Z is closed the three-condition characterization must agree;
    a mismatch is an internal error, not a result.
    """
    a = S.check_ids(a_ids)
    b = S.check_ids(b_ids)
    z = S.check_ids(z_ids)
    ensure_k_plus(S)
    d_a_z = _relative_d(a, z, S)
    d_a_zb = _relative_d(a, z | b, S)
    cl_az = closure(a | z, S)
    cl_bz = closure(b | z, S)
    cl_z = closure(z, S)
    cond_d = compare(d_a_z, d_a_zb, S.alpha) == 0
    cond_cl = (cl_az & cl_bz) == cl_z
    result = cond_d and cond_cl
    z_closed = cl_z == z
    report = {
        "independent": result,
        "zClosed": z_closed,
        "dCondition": cond_d,
        "closureCondition": cond_cl,
    }
    if z_closed:
        cl_abz = closure(a | b | z, S)
        elems = lambda ids: [S.element(i) for i in sorted(ids)]
        three_way = (
            (cl_az & cl_bz) == z
            and cl_abz == (cl_az | cl_bz)
            and _dim_indep_elements(elems(cl_az), elems(cl_bz), elems(z), S.backend)
        )
        if three_way != result:
            raise InvariantError(
                "D-independence characterizations disagree over a closed base"
            )
        report["threeConditionForm"] = three_way
    return report


def d_independent(a_ids, b_ids, z_ids, S: ColoredStructure) -> bool:
    return d_independent_report(a_ids, b_ids, z_ids, S)["independent"]
