"""Constructive engines: witnesses whose existence the theory promises get built.

Each builder returns the extended structure together with a verification
report recomputed from scratch on the result (construction and verification
are separate code paths).  New points are placed on a rational moment curve
over span(base) plus fresh coordinates, so every s-element subset of a patch
is a base over its anchor while small subsets of the patch stay independent
absolutely; genericity is verified, never assumed.

Exhaustive sweeps that would not fit desk scale (intermediate conditions past
2^12 subsets, minimal pairs past 2^17) downgrade to the structural argument
(every s-subset a base) plus seeded sampling, and the report records which
mode ran.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .closure import is_closed, is_minimal_pair
from .colored import (
    ColoredStructure,
    delta,
    empty_structure,
    ensure_k_plus,
    in_k_plus,
)
from .errors import (
    AlphaOne,
    BadEpsilon,
    BudgetExceeded,
    FamilyTooSmall,
    FreeBackendUnsupported,
    GapTooSmall,
    InputError,
    InvariantError,
    IrrationalAlpha,
    NotClosed,
    NotIndependent,
    NotTranscendental,
    RationalAlpha,
    SearchBudgetExceeded,
)
from .exactnum import (
    Alpha,
    ApproximationPair,
    PreDimValue,
    QuadRat,
    ZERO,
    compare,
    dirichlet_window,
    epsilon_bound,
    rational_pair,
)
from .pregeom import FREE, GroundElement
from .report import Check

EXHAUSTIVE_PATCH_LIMIT = 12
EXHAUSTIVE_MINPAIR_LIMIT = 17
SAMPLE_COUNT = 10_000
SAMPLE_SEED = 0x5EED
# Verification sweeps inside this module switch to seeded sampling once the
# exact search would pass this many nodes; the report records which mode ran.
VERIFY_NODE_BUDGET = 150_000


@dataclass
class BasisExtensionResult:
    structure: ColoredStructure
    new_ids: tuple[str, ...]
    checks: list = field(default_factory=list)


@dataclass
class PatchResult:
    structure: ColoredStructure
    new_ids: tuple[str, ...]
    pair: ApproximationPair
    delta_gap: PreDimValue
    checks: list = field(default_factory=list)


@dataclass
class PowerPatchResult:
    structure: ColoredStructure
    copies: list[tuple[str, ...]]
    pair: ApproximationPair
    checks: list = field(default_factory=list)

    @property
    def new_ids(self) -> tuple[str, ...]:
        return tuple(i for copy in self.copies for i in copy)


@dataclass
class ZeroExtensionResult:
    structure: ColoredStructure
    copies: list[tuple[str, ...]]
    checks: list = field(default_factory=list)

    @property
    def new_ids(self) -> tuple[str, ...]:
        return tuple(i for copy in self.copies for i in copy)


@dataclass
class ChainLevel:
    d_ids: tuple[str, ...]
    e_ids: tuple[str, ...]
    f_ids: tuple[str, ...]
    pair: ApproximationPair | None


@dataclass
class ChainResult:
    structure: ColoredStructure
    levels: list[ChainLevel]
    checks: list = field(default_factory=list)


@dataclass
class DeltaSystemResult:
    root: frozenset[str]
    indices: tuple[int, ...]
    discarded: int
    discard_bound: int
    checks: list = field(default_factory=list)


def _require(checks: list):
    bad = [c.name for c in checks if not c.passed]
    if bad:
        raise InvariantError(f"construction verification failed: {bad}")


def _transcendental_over(S: ColoredStructure, ids, base) -> bool:
    red = S.reducer_for(base)
    return all(any(red.residual(S.introw(i))) for i in sorted(set(ids) - set(base)))


def _moment_rows(basis_vecs, count: int, lam_start: int = 1):
    """Row for lambda is sum_i lambda^(i-1) * basis_vecs[i]; lambdas are the
    consecutive integers lam_start, lam_start+1, ..."""
    rows = []
    width = len(basis_vecs[0])
    for lam in range(lam_start, lam_start + count):
        acc = [Fraction(0)] * width
        power = 1
        for vec in basis_vecs:
            acc = [a + power * v for a, v in zip(acc, vec)]
            power *= lam
        rows.append(tuple(acc))
    return rows


def _grow_patch(
    S: ColoredStructure, b_ids, s: int, k: int, colored: bool, prefix: str = "d",
    lam_start: int = 1,
):
    """Widen by s dims and drop k moment-curve points over span(B) + fresh axes.

    Distinct copies over the same base must continue the lambda sequence:
    repeating parameters would stack identical residue lines inside span(B)
    and break hereditary positivity once rank(B) > 1.
    """
    old_dim = S.backend.ambient_dim
    basis_red = S.reducer_for(())
    basis_ids = [i for i in sorted(b_ids) if basis_red.add(S.introw(i))]
    new_ids = S.fresh_ids(prefix, k)
    pad = (Fraction(0),) * s
    basis_vecs = [S.element(i).vec + pad for i in basis_ids]
    for t in range(s):
        unit = [Fraction(0)] * (old_dim + s)
        unit[old_dim + t] = Fraction(1)
        basis_vecs.append(tuple(unit))
    rows = _moment_rows(basis_vecs, k, lam_start)
    new_elements = [GroundElement(eid, vec) for eid, vec in zip(new_ids, rows)]
    S2 = S.extended(new_elements, new_colored=new_ids if colored else (), widen_by=s)
    return S2, tuple(new_ids)


def _subset_sampler(ids, count, seed):
    rng = random.Random(seed)
    ids = sorted(ids)
    for _ in range(count):
        size = rng.randrange(0, len(ids) + 1)
        yield rng.sample(ids, size)


def _patch_interior_check(S2, b_ids, new_ids, alpha) -> Check:
    """delta(D') >= delta(B) for all B within D' strictly inside D, i.e.
    delta(C/B) >= 0 for every proper subset C of the patch."""
    k = len(new_ids)
    if k <= EXHAUSTIVE_PATCH_LIMIT:
        for size in range(1, k):
            for combo in itertools.combinations(sorted(new_ids), size):
                if delta(S2, combo, b_ids).sign(alpha) < 0:
                    return Check("interior_condition", False, witness=sorted(combo))
        return Check("interior_condition", True)
    for combo in _subset_sampler(new_ids, SAMPLE_COUNT, SAMPLE_SEED):
        if 0 < len(combo) < k and delta(S2, combo, b_ids).sign(alpha) < 0:
            return Check("interior_condition", False, witness=sorted(combo), method="sampled")
    return Check("interior_condition", True, method="sampled")


def _genericity_check(S2, new_ids, base_ids, s: int, name="generic_position") -> Check:
    """Every s-element subset of the patch is a base over the anchor."""
    k = len(new_ids)
    if s == 0 or k == 0:
        return Check(name, True)
    total = math.comb(k, s)
    if total <= 20_000:
        for combo in itertools.combinations(sorted(new_ids), s):
            if delta(S2, combo, base_ids).dim_part != s:
                return Check(name, False, witness=sorted(combo))
        return Check(name, True)
    rng = random.Random(SAMPLE_SEED)
    pool = sorted(new_ids)
    for _ in range(5000):
        combo = rng.sample(pool, s)
        if delta(S2, combo, base_ids).dim_part != s:
            return Check(name, False, witness=sorted(combo), method="sampled")
    return Check(name, True, method="sampled")


def _k_plus_check(S2) -> Check:
    try:
        return Check("ambient_k_plus", in_k_plus(S2, node_budget=VERIFY_NODE_BUDGET))
    except SearchBudgetExceeded:
        for combo in _subset_sampler(S2.id_set, SAMPLE_COUNT, SAMPLE_SEED):
            if combo and delta(S2, combo).sign(S2.alpha) < 0:
                return Check("ambient_k_plus", False, witness=sorted(combo), method="sampled")
        return Check("ambient_k_plus", True, method="sampled")


def _rref_rows(rows):
    from .colored import _rref

    if not rows:
        return ()
    frac_rows = [[Fraction(x) for x in r] for r in rows]
    red, _ = _rref(frac_rows)
    return tuple(tuple(r) for r in red)


def _free_union_min(S2, prime_ids, old_width: int, blocks) -> PreDimValue:
    """Exact min of delta(A/prime) for a free union of patch copies over a base.

    `blocks` lists (ids, fresh_start, fresh_len) per copy; a copy's payloads
    must be supported on the old coordinates plus its own fresh column block,
    everything else (prime set included) on the old coordinates alone.  Fresh
    columns are private to their block, so eliminating them is independent
    across blocks: delta decomposes into per-block profiles (fresh-pivot
    count, size, residue span over the old coordinates) combined by an exact
    DP over the joint residue span.  Raises SearchBudgetExceeded when the
    structure does not fit the shape.
    """
    from .pregeom import SpanReducer

    prime = set(prime_ids)
    in_blocks = {i for ids, _, _ in blocks for i in ids}

    def old_slice(eid):
        row = S2.introw(eid)
        if any(row[old_width:]):
            raise SearchBudgetExceeded("element escapes the old coordinates")
        return row[:old_width]

    old_cands = sorted(i for i in S2.colored if i not in prime and i not in in_blocks)
    if len(old_cands) > 14:
        raise SearchBudgetExceeded("free-union old part too large")
    prime_red = SpanReducer(old_width)
    for eid in sorted(prime):
        prime_red.add(old_slice(eid))

    def prime_reduced(row_old):
        res = prime_red.residual(list(row_old))
        return res if any(res) else None

    def block_profiles(ids, start, length):
        ids = sorted(ids)
        if len(ids) > 14:
            raise SearchBudgetExceeded("free-union block too large")
        for eid in ids:
            row = S2.introw(eid)
            for j, x in enumerate(row):
                if x and not (j < old_width or start <= j < start + length):
                    raise SearchBudgetExceeded("block escapes its fresh coordinates")
        profiles = {}
        for size in range(len(ids) + 1):
            for combo in itertools.combinations(ids, size):
                red = SpanReducer(length + old_width)
                for eid in combo:
                    row = S2.introw(eid)
                    red.add(row[start:start + length] + row[:old_width])
                rank_f = sum(1 for lead, _ in red.rows if lead < length)
                residues = []
                for lead, r in red.rows:
                    if lead >= length:
                        pr = prime_reduced(r[length:])
                        if pr is not None:
                            residues.append(pr)
                key = _rref_rows(residues)
                val = PreDimValue(rank_f, size)
                prev = profiles.get(key)
                if prev is None or compare(val, prev, S2.alpha) < 0:
                    profiles[key] = val
        return profiles

    all_profiles = [block_profiles(ids, start, length) for ids, start, length in blocks]
    if old_cands:
        profiles = {}
        for size in range(len(old_cands) + 1):
            for combo in itertools.combinations(old_cands, size):
                residues = []
                for eid in combo:
                    pr = prime_reduced(old_slice(eid))
                    if pr is not None:
                        residues.append(pr)
                key = _rref_rows(residues)
                val = PreDimValue(0, size)
                prev = profiles.get(key)
                if prev is None or compare(val, prev, S2.alpha) < 0:
                    profiles[key] = val
        all_profiles.append(profiles)

    states: dict[tuple, PreDimValue] = {(): ZERO}
    for profiles in all_profiles:
        nxt: dict[tuple, PreDimValue] = {}
        for srows, sval in states.items():
            for prows, pval in profiles.items():
                key = _rref_rows([list(r) for r in srows + prows])
                val = sval + pval
                prev = nxt.get(key)
                if prev is None or compare(val, prev, S2.alpha) < 0:
                    nxt[key] = val
        if len(nxt) > 4000:
            raise SearchBudgetExceeded("free-union residue states exploded")
        states = nxt
    best = ZERO
    for srows, sval in states.items():
        total = sval + PreDimValue(len(srows), 0)
        if compare(total, best, S2.alpha) < 0:
            best = total
    return best


def _union_checks(S2, a_ids, star_ids, old_width, blocks):
    """(ambient K+ check, anchor-closed check) for free unions of patches.

    The exact residue-span DP is tried first; when the structure does not fit
    its shape the budgeted general search runs, then seeded sampling.
    """
    try:
        v = _free_union_min(S2, (), old_width, blocks)
        kp = Check("ambient_k_plus", v.sign(S2.alpha) >= 0)
        if kp.passed:
            S2._k_plus = True
    except SearchBudgetExceeded:
        kp = _k_plus_check(S2)
    sub = S2.restrict(star_ids)
    if S2._k_plus:
        sub._k_plus = True
    try:
        v = _free_union_min(sub, a_ids, old_width, blocks)
        anchor = Check("anchor_closed", v.sign(S2.alpha) >= 0)
    except SearchBudgetExceeded:
        anchor = _anchor_closed_check(
            S2, a_ids, star_ids, kp.passed and kp.method == "exhaustive"
        )
    return kp, anchor


def _anchor_closed_check(S2, a_ids, within_ids, k_plus_exact: bool) -> Check:
    """A closed inside the induced substructure, budgeted with sampled fallback."""
    sub = S2.restrict(within_ids)
    if k_plus_exact:
        sub._k_plus = True  # hereditary: subsets of a certified structure
    try:
        ok = is_closed(a_ids, sub, node_budget=VERIFY_NODE_BUDGET)
        return Check("anchor_closed", ok)
    except SearchBudgetExceeded:
        pool = set(within_ids) - set(a_ids)
        for combo in _subset_sampler(pool, SAMPLE_COUNT, SAMPLE_SEED):
            if combo and delta(S2, combo, a_ids).sign(S2.alpha) < 0:
                return Check("anchor_closed", False, witness=sorted(combo), method="sampled")
        return Check("anchor_closed", True, method="sampled")


def _patch_preconditions(S, a_ids, b_ids, need_positive_gap=True):
    a = S.check_ids(a_ids)
    b = S.check_ids(b_ids)
    if not a <= b:
        raise InputError("anchor must be contained in the base")
    ensure_k_plus(S)
    if not is_closed(a, S.restrict(b)):
        raise NotClosed("anchor is not closed in the base")
    if not _transcendental_over(S, b, a):
        raise NotTranscendental("base has a point algebraic over the anchor")
    gap = delta(S, b, a)
    if need_positive_gap and gap.sign(S.alpha) <= 0:
        raise GapTooSmall("pre-dimension of base over anchor must be positive")
    return a, b, gap


# -- generic basis extension --------------------------------------------------


def generic_basis_extension(a_ids, b_ids, n: int, S: ColoredStructure) -> BasisExtensionResult:
    """n fresh plain points in span(A u B) making every |B|-subset of B u D a
    base over A; realized on the rational moment curve over B."""
    if S.backend.kind == FREE:
        raise FreeBackendUnsupported("needs an indecomposable pregeometry")
    a = S.check_ids(a_ids)
    b = S.check_ids(b_ids)
    if n < 0:
        raise InputError("n must be a natural number")
    if n == 0:
        return BasisExtensionResult(structure=S, new_ids=(), checks=[Check("all_bases", True)])
    bs = sorted(b - a)
    m = len(bs)
    if m == 0:
        raise NotIndependent("cannot extend the span of an empty independent set")
    if delta(S, bs, a).dim_part != m:
        raise NotIndependent("base set is not independent over the anchor")
    basis_vecs = [S.element(i).vec for i in bs]
    rows = _moment_rows(basis_vecs, n)
    new_ids = S.fresh_ids("g", n)
    S2 = S.extended([GroundElement(i, v) for i, v in zip(new_ids, rows)])
    pool = sorted(set(bs) | set(new_ids))
    ok = True
    witness = None
    for combo in itertools.combinations(pool, m):
        if delta(S2, combo, a).dim_part != m:
            ok, witness = False, sorted(combo)
            break
    checks = [Check("all_bases", ok, witness=witness)]
    _require(checks)
    return BasisExtensionResult(structure=S2, new_ids=new_ids, checks=checks)


# -- sunflowers with closed roots ---------------------------------------------


def _floor_ratio(k: int, eps_value: QuadRat) -> int:
    return (QuadRat.of(k) / eps_value).floor()


def delta_system_closed_root(family, n: int, S: ColoredStructure) -> DeltaSystemResult:
    """Sunflower of >= n members whose common root is closed in each member.

    Greedy extraction per candidate root (pairwise intersections, in size then
    lex order); members where the root fails closedness are discarded, and the
    discard count is checked against floor(k / eps_k).
    """
    sets = [S.check_ids(m) for m in family]
    if n < 1:
        raise InputError("n must be at least 1")
    ensure_k_plus(S)
    if not sets:
        raise FamilyTooSmall("empty family")
    k = len(sets[0])
    if any(len(m) != k for m in sets):
        raise InputError("family members must all have the same size")
    if k == 1:
        bound = 0
    else:
        bound = _floor_ratio(k, epsilon_bound(k, S.alpha).value(S.alpha))
    roots = {frozenset()}
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            roots.add(sets[i] & sets[j])
    for root in sorted(roots, key=lambda r: (len(r), tuple(sorted(r)))):
        chosen = []
        petals: set[str] = set()
        for idx, member in enumerate(sets):
            if not root <= member:
                continue
            petal = member - root
            if petal & petals:
                continue
            petals |= petal
            chosen.append(idx)
        kept = [i for i in chosen if is_closed(root, S.restrict(sets[i]))]
        discarded = len(chosen) - len(kept)
        if len(kept) >= n:
            if discarded > bound:
                raise InvariantError(
                    f"discards {discarded} exceed floor(k/eps_k) = {bound}"
                )
            checks = [
                Check(
                    "pairwise_root",
                    all(
                        sets[i] & sets[j] == root
                        for i, j in itertools.combinations(kept, 2)
                    ),
                ),
                Check(
                    "root_closed_each",
                    all(is_closed(root, S.restrict(sets[i])) for i in kept),
                ),
                Check("discard_bound", discarded <= bound),
            ]
            _require(checks)
            return DeltaSystemResult(
                root=root,
                indices=tuple(kept),
                discarded=discarded,
                discard_bound=bound,
                checks=checks,
            )
    raise FamilyTooSmall(f"no root reaches {n} members with closed root")


# -- irrational patches --------------------------------------------------------


def transcendental_patch(a_ids, b_ids, epsilon, S: ColoredStructure) -> PatchResult:
    """k colored points over B with -epsilon < delta(D/B) = s - alpha*k < 0.

    (s, k) comes from the minimal-k Dirichlet window; the points sit on the
    moment curve over span(B) plus s fresh coordinates, so every s-subset is a
    base over B and the interior condition delta(D') >= delta(B) holds.
    """
    if S.alpha.is_rational:
        raise RationalAlpha("patch needs an irrational coefficient")
    eps = QuadRat.of(epsilon)
    if eps.sign() <= 0 or (eps - S.alpha.value()).sign() >= 0:
        raise BadEpsilon("need 0 < epsilon < alpha")
    a, b, gap = _patch_preconditions(S, a_ids, b_ids, need_positive_gap=False)
    if (gap.value(S.alpha) - eps).sign() <= 0:
        raise GapTooSmall("need delta(B/A) > epsilon")
    pair = dirichlet_window(S.alpha, eps)
    s, k = pair.s, pair.k
    old_width = S.backend.ambient_dim
    S2, new_ids = _grow_patch(S, b, s, k, colored=True)
    d_ids = b | set(new_ids)
    gap_post = delta(S2, new_ids, b)
    window_val = PreDimValue(s, k).value(S2.alpha)
    kp, anchor = _union_checks(S2, a, d_ids, old_width, [(new_ids, old_width, s)])
    checks = [
        Check("window", window_val.sign() < 0 and (window_val + eps).sign() > 0),
        Check("delta_gap", gap_post == PreDimValue(s, k)),
        _genericity_check(S2, new_ids, b, s),
        _patch_interior_check(S2, b, new_ids, S2.alpha),
        anchor,
        Check("transcendental", _transcendental_over(S2, d_ids, a)),
        kp,
    ]
    _require(checks)
    return PatchResult(
        structure=S2, new_ids=new_ids, pair=pair, delta_gap=PreDimValue(s, k), checks=checks
    )


def free_power_patch(a_ids, b_ids, mu, n: int, S: ColoredStructure) -> PowerPatchResult:
    """Free union over B of enough patch copies to push delta(D*/A) below mu
    while every extension of B by fewer than n points stays closed."""
    if S.alpha.is_rational:
        raise RationalAlpha("free power patch needs an irrational coefficient")
    mu_q = QuadRat.of(mu)
    if mu_q.sign() <= 0:
        raise InputError("mu must be positive")
    if n < 0:
        raise InputError("n must be a natural number")
    a, b, gap = _patch_preconditions(S, a_ids, b_ids, need_positive_gap=True)
    terms = [gap.value(S.alpha), mu_q, S.alpha.value()]
    if n >= 2:
        terms.append(epsilon_bound(n, S.alpha).value(S.alpha) / n)
    lam = min(terms) / 2
    old_width = S.backend.ambient_dim
    first = transcendental_patch(a, b, lam, S)
    gamma = -PreDimValue(first.pair.s, first.pair.k).value(S.alpha)
    copies_needed = (gap.value(S.alpha) / gamma).floor()
    S2 = first.structure
    copies = [first.new_ids]
    blocks = [(first.new_ids, old_width, first.pair.s)]
    for c in range(1, copies_needed):
        start = S2.backend.ambient_dim
        S2, ids = _grow_patch(
            S2, b, first.pair.s, first.pair.k, colored=True,
            lam_start=1 + c * first.pair.k,
        )
        copies.append(ids)
        blocks.append((ids, start, first.pair.s))
    star = b | {i for c in copies for i in c}
    new_all = [i for c in copies for i in c]
    kp, anchor = _union_checks(S2, a, star, old_width, blocks)
    checks = [
        Check(
            "per_copy_gap",
            all(delta(S2, c, b) == PreDimValue(first.pair.s, first.pair.k) for c in copies),
        ),
        Check("power_gap", (delta(S2, star, a).value(S2.alpha) - mu_q).sign() < 0),
        _small_extensions_closed_check(S2, b, new_all, n),
        anchor,
        Check("transcendental", _transcendental_over(S2, star, a)),
        kp,
    ]
    _require(checks)
    return PowerPatchResult(structure=S2, copies=copies, pair=first.pair, checks=checks)


def _small_extensions_closed_check(S2, b_ids, new_ids, n, name="small_sets_closed") -> Check:
    """delta(C/B) >= 0 for every C between B and B u new with |C - B| < n."""
    pool = sorted(new_ids)
    total = sum(math.comb(len(pool), j) for j in range(min(n, len(pool) + 1)))
    if total <= 200_000:
        for j in range(min(n, len(pool) + 1)):
            for combo in itertools.combinations(pool, j):
                if delta(S2, combo, b_ids).sign(S2.alpha) < 0:
                    return Check(name, False, witness=sorted(combo))
        return Check(name, True)
    rng = random.Random(SAMPLE_SEED)
    for _ in range(SAMPLE_COUNT):
        size = rng.randrange(0, n)
        combo = rng.sample(pool, min(size, len(pool)))
        if delta(S2, combo, b_ids).sign(S2.alpha) < 0:
            return Check(name, False, witness=sorted(combo), method="sampled")
    return Check(name, True, method="sampled")


# -- rational patches ----------------------------------------------------------


def rational_minimal_extension(a_ids, b_ids, t: int, S: ColoredStructure) -> PatchResult:
    """Minimal pair (B, D) with delta(D/B) = -1/n exactly and |D - B| > t."""
    if not S.alpha.is_rational:
        raise IrrationalAlpha("rational extension needs a rational coefficient")
    if S.alpha.num == S.alpha.den:
        raise AlphaOne("alpha = 1 admits no such pair")
    a, b, gap = _patch_preconditions(S, a_ids, b_ids, need_positive_gap=True)
    pair = rational_pair(S.alpha, t)
    s, k = pair.s, pair.k
    old_width = S.backend.ambient_dim
    S2, new_ids = _grow_patch(S, b, s, k, colored=True)
    d_ids = b | set(new_ids)
    m, nden = S.alpha.num, S.alpha.den
    gap_post = delta(S2, new_ids, b)
    kp, anchor = _union_checks(S2, a, d_ids, old_width, [(new_ids, old_width, s)])
    checks = [
        Check("delta_exact", nden * s - m * k == -1 and gap_post == PreDimValue(s, k)),
        Check("size_exceeds_t", k > t),
        _genericity_check(S2, new_ids, b, s),
        _minimal_pair_check(S2, b, d_ids, new_ids, s),
        anchor,
        Check("transcendental", _transcendental_over(S2, d_ids, a)),
        kp,
    ]
    _require(checks)
    return PatchResult(
        structure=S2, new_ids=new_ids, pair=pair, delta_gap=PreDimValue(s, k), checks=checks
    )


def _minimal_pair_check(S2, b_ids, d_ids, new_ids, s, limit=None, name="minimal_pair") -> Check:
    k = len(new_ids)
    limit = EXHAUSTIVE_MINPAIR_LIMIT if limit is None else limit
    if k <= limit:
        return Check(name, is_minimal_pair(b_ids, d_ids, S2))
    alpha = S2.alpha
    if delta(S2, d_ids, b_ids).sign(alpha) >= 0:
        return Check(name, False, method="structural")
    # Verified genericity turns every intermediate into min(l, s) - alpha*l.
    gen = _genericity_check(S2, new_ids, b_ids, s, name="minpair_genericity")
    if not gen.passed:
        return Check(name, False, witness=gen.witness, method="structural")
    for l in range(1, k):
        if PreDimValue(min(l, s), l).sign(alpha) < 0:
            return Check(name, False, witness=f"size {l}", method="structural")
    for combo in _subset_sampler(new_ids, 2000, SAMPLE_SEED):
        if 0 < len(combo) < k and delta(S2, combo, b_ids).sign(alpha) < 0:
            return Check(name, False, witness=sorted(combo), method="structural")
    return Check(name, True, method="structural")


def rational_zero_extension(a_ids, b_ids, t: int, S: ColoredStructure) -> ZeroExtensionResult:
    """Free union over B of p patch copies with delta(D*/A) = 0 exactly,
    where delta(B/A) = p/n."""
    if not S.alpha.is_rational:
        raise IrrationalAlpha("rational extension needs a rational coefficient")
    if S.alpha.num == S.alpha.den:
        raise AlphaOne("alpha = 1 admits no such pair")
    a, b, gap = _patch_preconditions(S, a_ids, b_ids, need_positive_gap=False)
    m, nden = S.alpha.num, S.alpha.den
    p = nden * gap.dim_part - m * gap.color_part
    if p < 0:
        raise GapTooSmall("delta(B/A) must be nonnegative")
    if p == 0:
        return ZeroExtensionResult(structure=S, copies=[], checks=[Check("zero_gap", True)])
    pair = rational_pair(S.alpha, t)
    s, k = pair.s, pair.k
    old_width = S.backend.ambient_dim
    S2 = S
    copies = []
    blocks = []
    for c in range(p):
        start = S2.backend.ambient_dim
        S2, ids = _grow_patch(S2, b, s, k, colored=True, lam_start=1 + c * k)
        copies.append(ids)
        blocks.append((ids, start, s))
    star = b | {i for c in copies for i in c}
    new_all = [i for c in copies for i in c]
    kp, anchor = _union_checks(S2, a, star, old_width, blocks)
    checks = [
        Check("per_copy_gap", all(delta(S2, c, b) == PreDimValue(s, k) for c in copies)),
        Check("zero_gap", delta(S2, star, a).sign(S2.alpha) == 0),
        _small_extensions_closed_check(S2, b, new_all, t),
        anchor,
        Check("transcendental", _transcendental_over(S2, star, a)),
        kp,
    ]
    _require(checks)
    return ZeroExtensionResult(structure=S2, copies=copies, checks=checks)


# -- minimal pair chains --------------------------------------------------------


def chain_window(alpha: Alpha, level: int) -> QuadRat:
    """Window width (1 - alpha) / 2^level for the level-th chain step."""
    return (QuadRat.of(1) - alpha.value()) / (2**level)


def chain_pairs(alpha: Alpha, depth: int) -> list[ApproximationPair]:
    """Pairs of levels 1..depth: level l takes the least-k pair with
    0 < k*alpha - s < min((1 - alpha)/2^l, level l-1's k*alpha - s), so the
    drops s - k*alpha strictly increase even where two windows share their
    least-k pair."""
    if alpha.is_rational:
        raise RationalAlpha("chains need an irrational coefficient")
    pairs: list[ApproximationPair] = []
    for lvl in range(1, depth + 1):
        eps = chain_window(alpha, lvl)
        if pairs:
            prev_gap = -PreDimValue(pairs[-1].s, pairs[-1].k).value(alpha)
            if prev_gap < eps:
                eps = prev_gap
        pairs.append(dirichlet_window(alpha, eps))
    return pairs


def minimal_pair_chain(alpha: Alpha, depth: int, ambient_budget: int) -> ChainResult:
    """Tower D_0 c D_1 c ... with each step a minimal pair inside a shrinking
    Dirichlet window; every level's points are colored, D_0 stays plain."""
    if alpha.is_rational:
        raise RationalAlpha("chains need an irrational coefficient")
    if depth < 0:
        raise InputError("depth must be a natural number")
    pairs = chain_pairs(alpha, depth)
    needed = 1 + sum(p.s for p in pairs)
    if needed > ambient_budget:
        raise BudgetExceeded(f"chain needs ambient {needed} > budget {ambient_budget}")
    S = empty_structure(alpha, ambient=1)
    S = S.extended([GroundElement("d0", (Fraction(1),))])
    levels = [ChainLevel(d_ids=("d0",), e_ids=("d0",), f_ids=(), pair=None)]
    checks: list[Check] = []
    d_cur = {"d0"}
    e_counter = 1
    f_counter = 1
    lam_counter = 1
    prev_drop = None
    for lvl, pair in enumerate(pairs, start=1):
        s, k = pair.s, pair.k
        w = chain_window(alpha, lvl)
        drop = PreDimValue(s, k).value(alpha)
        checks.append(Check(f"window_{lvl}", drop.sign() < 0 and (drop + w).sign() > 0))
        if prev_drop is not None:
            checks.append(Check(f"drops_increase_{lvl}", (drop - prev_drop).sign() > 0))
        prev_drop = drop
        old_dim = S.backend.ambient_dim
        e_ids = [f"e{e_counter + i}" for i in range(s)]
        e_counter += s
        pad_elems = []
        for i, eid in enumerate(e_ids):
            vec = [Fraction(0)] * (old_dim + s)
            vec[old_dim + i] = Fraction(1)
            pad_elems.append(GroundElement(eid, tuple(vec)))
        S = S.extended(pad_elems, new_colored=e_ids, widen_by=s)
        f_count = k - s
        f_ids = [f"f{f_counter + i}" for i in range(f_count)]
        f_counter += f_count
        if f_count:
            basis_red = S.reducer_for(())
            basis_ids = [i for i in sorted(d_cur) if basis_red.add(S.introw(i))]
            basis_vecs = [S.element(i).vec for i in basis_ids]
            basis_vecs += [S.element(i).vec for i in e_ids]
            rows = _moment_rows(basis_vecs, f_count, lam_counter)
            lam_counter += f_count
            S = S.extended(
                [GroundElement(fid, vec) for fid, vec in zip(f_ids, rows)],
                new_colored=f_ids,
            )
        d_next = d_cur | set(e_ids) | set(f_ids)
        checks.append(
            _genericity_check(S, tuple(e_ids) + tuple(f_ids), d_cur, s, name=f"generic_{lvl}")
        )
        checks.append(
            _minimal_pair_check(
                S, frozenset(d_cur), frozenset(d_next), tuple(e_ids) + tuple(f_ids), s,
                name=f"minimal_pair_{lvl}",
            )
        )
        levels.append(
            ChainLevel(
                d_ids=tuple(sorted(d_next)),
                e_ids=tuple(e_ids),
                f_ids=tuple(f_ids),
                pair=pair,
            )
        )
        d_cur = d_next
    checks.append(_k_plus_check(S))
    _require(checks)
    return ChainResult(structure=S, levels=levels, checks=checks)
