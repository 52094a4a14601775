"""Constructive engines: witnesses whose existence the theory promises get built.

Each structure builder returns one `Construction`: the extended structure,
its new points grouped by copy, and a verification report recomputed from
scratch on the result (construction and verification are separate code
paths).  `grow_patch` places every new point: on a rational moment curve
over span(base) plus s fresh coordinates, so every s-element subset of a
patch is a base over its anchor while small subsets of the patch stay
independent absolutely; a basis extension takes s = 0, and a chain level
puts its E points on the fresh unit vectors after its F points.  Genericity
is verified, never assumed.  The four patch engines share one pipeline,
`_patch_union`: a single patch is a free union of one copy.

Each check records its method, "exhaustive" (every case was tried) or
"certified" (a proof read off the result's verified shape).  That shape is
read once per result by `_on_curve`: every new point, whole row, lies on
the moment curve over B that `grow_patch` uses, checked in integers with no
elimination, or InvariantError names the rule that fails.  Its lemma (see
`_certified`) gives every rank the checks need in closed form, so each
subset check, each copy's delta(N_c/B), delta(D*/A) of a union, and a
minimal pair's delta(D/B) < 0 are certified by the check's own exact
inequality on those ranks (`_certified`); no subset is swept and no rank is
eliminated.  A patch union's ambient K+ and anchor closedness are certified
by the fresh-block lemma (`_fresh_block_union`); where its hypotheses fail
(a base of rank r with k - s < r) the DP over walked block tables
(`_block_profile`, `_free_union_min`) decides them exhaustively, and where
the DP cannot, a budgeted search of the union (`_dp_or_searched`).  A
chain's K+ is certified level by level (`_tower_k_plus_check`), condition
(c) read off the curve where the level's F points span the level below, or
raises, naming the rule that fails; the chain itself is never searched.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .closure import is_closed
from .colored import (
    ColoredStructure,
    certify_k_plus,
    delta,
    empty_structure,
    ensure_k_plus,
    in_k_plus,
    min_relative_delta,
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
from .pregeom import FREE, LINEAR, Backend, Coordinates, GroundElement, SpanReducer
from .pregeom import canonical_rows, span_key, walk
from .report import Check

# Largest block whose subsets `_block_profile` tabulates (2^14 - 1 of them).
BLOCK_PROFILE_LIMIT = 14
# Node budget of this module's K+ and closedness searches: of the input S (an
# overrun yields to the DP), of a chain level's S'_l (condition (c)) and of a
# union the DP cannot decide.  Those overruns raise SearchBudgetExceeded
# naming the check (CLI exit 2), never sample.
VERIFY_NODE_BUDGET = 150_000


@dataclass
class ChainLevel:
    d_ids: tuple[str, ...]
    e_ids: tuple[str, ...]
    f_ids: tuple[str, ...]
    pair: ApproximationPair | None


@dataclass
class Construction:
    """A built structure and the checks recomputed on it.

    `copies` holds the new points in the order they were grown: one copy for
    a patch or a basis extension, one per patch copy of a free union, and one
    per level (its E and F points) of a chain, which also keeps its `levels`.
    `pair` is the (s, k) shared by a patch's copies.
    """

    structure: ColoredStructure
    checks: list = field(default_factory=list)
    copies: list[tuple[str, ...]] = field(default_factory=list)
    pair: ApproximationPair | None = None
    levels: list[ChainLevel] = field(default_factory=list)

    @property
    def new_ids(self) -> tuple[str, ...]:
        return tuple(i for copy in self.copies for i in copy)

    @property
    def delta_gap(self) -> PreDimValue:
        """delta(copy/B) = s - alpha*k of each patch copy."""
        return PreDimValue(self.pair.s, self.pair.k)


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


def _moment_rows(basis, width: int, count: int, lam_start: int = 1):
    """Integer payloads (m, row) of width `width` of the points sum_i
    lambda^(i-1)*u_i for lambda = lam_start, lam_start + 1, ...; `basis`
    gives each u_i as (m_i, [(column, entry), ...]), the nonzero entries of
    its integer payload.  Each row accumulates those entries over the u_i's
    common denominator L (`_curve_point`, which `_on_curve` checks rows
    against), and (m, row) = (L/g, acc/g) for g the gcd of L and acc: the
    least m clearing the point's denominators, as `int_payload` gives it."""
    den = math.lcm(*(m for m, _ in basis))
    supports = [[(j, x * (den // m)) for j, x in support] for m, support in basis]
    payloads = []
    for lam in range(lam_start, lam_start + count):
        acc = _curve_point(supports, lam)
        g = math.gcd(den, *acc.values())
        row = [0] * width
        for j, x in acc.items():
            row[j] = x // g
        payloads.append((den // g, row))
    return payloads


def _curve_basis(S, b_ids):
    """v_1, ..., v_r, the basis of span(B) the moment curves over B are
    written in: the points of B, in id order, outside the span of those
    before them.  Returns their ids and each as (m, [(column, entry), ...]),
    the nonzero entries of its integer payload."""
    red = S.reducer_for(())
    ids = [i for i in sorted(b_ids) if red.add(S.introw(i))]
    return ids, [(m, [(j, x) for j, x in enumerate(row) if x]) for m, row in map(S.payload, ids)]


def grow_patch(
    S: ColoredStructure, b_ids, s: int, k: int, colored: bool, prefix: str = "d",
    lam_start: int = 1, copies: int = 1,
):
    """Widen by copies*s dims and drop `copies` copies of k moment-curve
    points each over span(B) + fresh axes.

    The point for lambda = lam_start, lam_start + 1, ... is sum_i
    lambda^(i-1)*u_i, u being the basis v_1, ..., v_r of span(B) that
    `_curve_basis` picks, then the s fresh unit vectors of its copy: copy c
    takes the next k lambdas and the c-th block of s columns after S's.
    Returns the grown structure and the new ids, copy after copy, named from
    `prefix` and colored when `colored` is set; nothing is verified.  The
    points are made as integer payloads (`_moment_rows`), and S is extended
    once, so the earlier points are padded once however many copies grow.
    With s = 0 the points lie in span(B) (a basis extension); a chain level
    adds its E points on the s fresh unit vectors afterwards.  Distinct
    copies over the same base must continue the lambda sequence: repeating
    parameters would stack identical residue lines inside span(B) and break
    hereditary positivity once rank(B) > 1.
    """
    old_dim = S.backend.ambient_dim
    width = old_dim + copies * s
    basis = _curve_basis(S, b_ids)[1]
    new_ids = S.fresh_ids(prefix, copies * k)
    payloads = {}
    for c in range(copies):
        units = [(1, [(old_dim + c * s + t, 1)]) for t in range(s)]
        rows = _moment_rows(basis + units, width, k, lam_start + c * k)
        payloads.update(zip(new_ids[c * k:(c + 1) * k], rows))
    S2 = S.extended(payloads=payloads, new_colored=new_ids if colored else (), widen_by=copies * s)
    return S2, tuple(new_ids)


def _fresh_blocks(S, copies, s: int) -> list:
    """(ids, start, s) per copy, the copies owning S's last columns in order."""
    width = S.backend.ambient_dim
    return [(ids, width - (len(copies) - c) * s, s) for c, ids in enumerate(copies)]


def _on_curve(name: str, S, b_ids, blocks, others=()) -> int:
    """r = rank(B) once every copy of `blocks`, (ids, start, s) each, is
    read to lie on its whole moment curve over B = `b_ids`; otherwise
    InvariantError naming `name` and the first rule that fails.

    A copy's curve is gamma(lam) = sum_i lam^(i-1)*u_i, u being the basis
    v_1, ..., v_r of span(B) that `_curve_basis` picks (as `grow_patch`
    does), then the unit vectors of the copy's block [start, start + s).
    The rules: the blocks lie within the columns and are disjoint; B and
    the points of `others` are zero on every block; each point of a copy is
    c*gamma(lam) with c > 0 and lam > 0, or c times a unit vector of its own
    block with c > 0; and no lam or unit vector is met twice in a copy.  For
    r + s = 1, gamma is u_1 alone and no lam is read.

    lam is read off the point's part f on its block, lam = f_1/f_0, or for
    s <= 1 off its coordinates a over the u_i (`Coordinates`), lam =
    a_2/a_1.  The whole row is then compared with gamma(lam) in integers
    (`_curve_point`): multiply-adds over the u_i's nonzero entries, and the
    row's own count of nonzero entries.  Only the basis is eliminated, once,
    and for s <= 1 each point's coordinates over the u_i.
    `_certified` gives the lemma these rules prove.
    """
    width = S.backend.ambient_dim
    spans = sorted((start, start + s) for _, start, s in blocks)
    bounds = [0, *(x for span in spans for x in span), width]
    _hold(name, bounds == sorted(bounds), "the fresh blocks lie within the columns, disjoint")
    _hold(name, not any(any(S.introw(i)[lo:hi]) for i in {*b_ids, *others} for lo, hi in spans),
          "B is zero on the fresh blocks")
    basis_ids, basis = _curve_basis(S, b_ids)
    r = len(basis)
    for c, (ids, start, s) in enumerate(blocks, start=1):
        u = basis + [(1, [(start + t, 1)]) for t in range(s)]
        if s <= 1 < r + s:  # lam is read off the coordinates over u
            co = Coordinates(width, r + s)
            for payload in [*map(S.payload, basis_ids), (1, [int(j == start) for j in range(width)])][:r + s]:
                co.insert(payload)
        den = math.lcm(*(m for m, _ in u))
        u = [[(j, x * (den // m)) for j, x in support] for m, support in u]
        nodes = set()
        for eid in ids:
            m, row = S.payload(eid)
            f, nonzero = row[start:start + s], len(row) - row.count(0)
            if r + s > 1 and nonzero == 1 and any(f):  # a unit: no curve point has one nonzero entry
                t = next(t for t, x in enumerate(f) if x)
                node, point = ("unit", t), {start + t: 1}
            else:
                if r + s == 1:
                    lam = Fraction(1)
                elif s >= 2:
                    lam = f[0] and Fraction(f[1], f[0])
                else:  # coordinates (den, nums) = c*(1, lam, ...)*den
                    a = co.coords((m, row))
                    lam = a and a[1][0] and Fraction(a[1][1], a[1][0])
                _hold(name, lam, f"each point of copy {c} is on its moment curve")
                _hold(name, lam > 0, f"the lambdas of copy {c} are positive")
                node, point = lam, _curve_point(u, lam)
            j0, e0 = next(iter(point.items()))
            x0 = row[j0]
            _hold(name, x0 and all(row[j] * e0 == e * x0 for j, e in point.items()),
                  f"each point of copy {c} is on its moment curve")
            _hold(name, nonzero == len(point), f"each point of copy {c} is zero off B's columns and its block")
            _hold(name, x0 * e0 > 0, f"c > 0 at each point of copy {c}")
            _hold(name, r + s == 1 or node not in nodes,
                  f"the lambdas and unit points of copy {c} are distinct")
            nodes.add(node)
    return r


def _curve_point(u, lam) -> dict:
    """{column: entry} of the nonzero entries of q^(n-1)*sum_i lam^(i-1)*u_i
    for lam = p/q (an int or a Fraction) and integer supports u_1, ..., u_n,
    [(column, entry), ...] each: entry sum_i p^(i-1)*q^(n-i)*u_i."""
    p, q = lam.numerator, lam.denominator
    acc: dict[int, int] = {}
    coef = q ** (len(u) - 1)
    for support in u:
        for j, x in support:
            acc[j] = acc.get(j, 0) + coef * x
        coef = coef // q * p  # exact before the last u_i, unused after it
    return {j: x for j, x in acc.items() if x}


def _hold(name: str, holds: bool, statement: str):
    """InvariantError naming the check `name` and `statement` unless it holds."""
    if not holds:
        raise InvariantError(f"{name}: {statement} does not hold on the result")


def _certified(name: str, *hypotheses) -> Check:
    """The one rule of every subset check: Check(name, True, "certified")
    when each (holds, statement) of the check's own exact `hypotheses` holds
    on the built result, `_on_curve` having held on it first (it raises
    otherwise); else InvariantError naming the check and the first
    hypothesis that failed.  A value check (a delta the lemma below gives
    exactly) is instead Check(name, verdict, "certified"): the lemma decides
    it either way.

    Lemma (whole curve).  Let `_on_curve` hold for B, of rank r, and copies
    N_1, ..., N_p of k_1, ..., k_p points, each on its block of s columns.
    Then
      (a) any m <= r + s of a copy's points and its u_1, ..., u_{r+s}, no
          two of them parallel, are independent; so rank(N_c) = min(k_c, r + s);
      (b) dim(C/B) = sum over c of min(|C n N_c|, s) for C within the copies;
      (c) for k_c >= s, B lies in span(N_c) iff k_c >= r + s;
      (d) dim(B u copies / A) = dim(B/A) + sum over c of min(k_c, s) for A
          within B.

    Proof.  The u_i are independent: the v_i are, and are zero on the block.
    In the coordinates u, a point is c*(1, lam, ..., lam^(r+s-1)) or c times
    a unit vector, as each u_i is.  Take m <= r + s of them, j of them units
    on the positions J; their minor on the columns J and any m - j others
    is, up to the nonzero c's and a sign, a minor of a Vandermonde matrix
    with distinct positive nodes, nonzero by Descartes' rule of signs: (a).
    Projecting onto the blocks kills B and splits by copy.  On its block
    each point of C n N_c is c*lam^r*(1, lam, ..., lam^(s-1)) or a unit
    vector, so the part of C n N_c has rank min(|C n N_c|, s) by the same
    minors; and C n N_c lies in span(B) plus its block: (b).  For (c),
    dim(N_c u B) = r + s by (b) and k_c >= s, while rank(N_c) = min(k_c, r +
    s) by (a); they agree iff k_c >= r + s.  (d) is (b) for C the copies, as
    dim(B u C / A) = dim(B/A) + dim(C/B).

    So for patch copies of k > s colored points over B, with s - alpha*(k -
    1) >= 0 where a check asks it, the value checks read
      delta_gap, per_copy_gap: delta(N_c/B) = min(k, s) - alpha*k = s -
        alpha*k by (b); delta_exact adds n*s - m*k = -1 at alpha = m/n;
      power_gap, zero_gap: delta(D*/A) = delta(B/A) + p*(s - alpha*k) by (d);
    and the subset checks are certified by
      generic_position: every s-subset is a base over B, by (b);
      interior_condition: delta(C/B) >= min(m, s) - alpha*m >= 0 for every C
        of m < k points, by alpha <= 1 up to s and by s - alpha*(k - 1) >= 0
        past it;
      minimal_pair: delta(D/B) = s - alpha*k < 0 plus the interior condition;
      small_sets_closed: a C of fewer than n <= k points within the copies
        meets each copy in m < k points, so the interior bound holds per copy;
      all_bases: for a basis extension (s = 0, B independent over A, so
        u_1, ..., u_r are B's points) every r-subset of B u N spans span(B)
        by (a), a base over A.
    """
    for holds, statement in hypotheses:
        _hold(name, holds, statement)
    return Check(name, True, method="certified")


def _interior(s: int, k: int, alpha):
    """s - alpha*(k - 1) >= 0, the interior hypothesis of `_certified`."""
    return PreDimValue(s, k - 1).sign(alpha) >= 0, "s - alpha*(k - 1) >= 0"


def _dp_or_searched(name: str, dp, search) -> bool:
    """dp(), the free-union DP's verdict; where the DP cannot decide (a block
    past BLOCK_PROFILE_LIMIT, too many residue states), the budgeted
    search()'s, whose overrun raises SearchBudgetExceeded naming the check,
    the DP's reason and the search's."""
    try:
        return dp()
    except SearchBudgetExceeded as refused:
        try:
            return search()
        except SearchBudgetExceeded as e:
            raise SearchBudgetExceeded(f"{name}: {refused}; its search: {e}") from e


def _tower_k_plus_check(S, levels) -> Check:
    """Ambient K+ of a chain, proved level by level ("certified").

    D_0 is levels[0].d_ids and D_l is D_{l-1} plus the points N_l = E_l u F_l
    of levels[l].e_ids and .f_ids; s = |E_l| and k = |N_l|.  The columns are
    [0, w_1) for D_0, then one fresh block [w_l, w_l + s) per level, w_1
    being the width minus every level's s.  The shape is checked first: no
    point is listed twice and the last D_l is all of S; D_0 has no colored
    point and is zero from column w_1 on; the i-th point of E_l is nonzero at
    column w_l + i alone; all of N_l is colored; and (a) below.  So F_l is
    zero from column w_l + s on, and D_{l-1} is zero outside the old
    columns [0, w_l).  Write F'_l
    for the old-column parts of F_l and S'_l for D_{l-1} on the old columns
    plus F'_l as plain points.

    Lemma.  Let D_{l-1} be in K+, and
      (a) `_on_curve` holds for N_l on its block [w_l, w_l + s) over
          D_{l-1}, so dim(C/D_{l-1}) = min(|C|, s) for C within N_l;
      (b) s - alpha*(k - 1) >= 0;
      (c) delta(F'_l) + min_relative_delta(S'_l, F'_l) >= alpha*k - s.
    Then D_l is in K+.  D_0 is, having no colored point, so S is by induction.

    Proof.  Let A be within D_l, A' = A n D_{l-1} and C = A n N_l, so that
    delta(A) = delta(A') + delta(C/A') with delta(A') >= 0.  If C is a proper
    subset of N_l, (a) gives delta(C/A') >= min(|C|, s) - alpha*|C|, as A' lies
    within D_{l-1}; that is >= 0,
    by alpha <= 1 up to size s and by (b) from there to size k - 1.  If
    C = N_l, the fresh parts of F_l lie in span(E_l), the unit vectors of a
    block where A' is zero, so dim(A' u N_l) = s + dim(A' u F'_l) and
    delta(A) = delta_{S'_l}(A' u F'_l) - (alpha*k - s), which is at least
    delta(F'_l) + min_relative_delta(S'_l, F'_l) - (alpha*k - s) >= 0 by (c).

    (c) is read off the curve where it can be.  Let w = rank(D_{l-1}) and j
    = |F_l|.  F'_l lies on the moment curve of D_{l-1}'s
    basis, sum_{i <= w} lam^(i-1)*v_i times c > 0 at distinct lams, so
    delta(F'_l) = min(j, w) by the curve lemma (a).  For j >= w, F'_l spans
    span(D_{l-1}), so every colored point of S'_l lies in span(F'_l) and
    min_relative_delta(S'_l, F'_l) = -alpha*|colored D_{l-1}|: (c) is then
    delta(D_{l-1}) + s - alpha*k >= 0, with no search.  For j < w, S'_l is
    searched.

    A shape rule or a condition that fails raises InvariantError naming it,
    and (c)'s search running out of its budget raises SearchBudgetExceeded;
    both name ambient_k_plus.  S itself is never searched.
    """
    name = "ambient_k_plus"
    d_prev = set(levels[0].d_ids)
    width = S.backend.ambient_dim - sum(len(lv.e_ids) for lv in levels[1:])
    _hold(name, not d_prev & S.colored, "D_0 has no colored point")
    _hold(name, _zero_from(S, d_prev, width), "D_0 is zero from column w_1 on")
    for lvl, lv in enumerate(levels[1:], start=1):
        new = lv.e_ids + lv.f_ids
        s, k = len(lv.e_ids), len(new)
        _hold(name, len(set(new)) == k and not d_prev.intersection(new), f"N_{lvl} lists new points once")
        _hold(name, S.colored.issuperset(new), f"N_{lvl} is colored")
        _hold(name, all(
            [j for j, x in enumerate(S.introw(eid)) if x] == [width + i] for i, eid in enumerate(lv.e_ids)
        ), f"E_{lvl} is its block's unit vectors")
        w = _on_curve(f"{name}: (a) at level {lvl}", S, d_prev, [(new, width, s)])
        _hold(name, PreDimValue(s, k - 1).sign(S.alpha) >= 0, f"(b) s - alpha*(k - 1) >= 0 at level {lvl}")
        j = len(lv.f_ids)
        if j >= w:
            low = PreDimValue(0, len(S.colored & d_prev))
        else:
            cut = tuple(GroundElement(i, S.element(i).vec[:width]) for i in (*sorted(d_prev), *lv.f_ids))
            Sp = ColoredStructure(Backend(LINEAR, width), cut, S.colored & d_prev, S.alpha)
            try:
                low, _ = min_relative_delta(Sp, lv.f_ids, VERIFY_NODE_BUDGET)
            except SearchBudgetExceeded as e:
                raise SearchBudgetExceeded(f"{name}: {e}") from e
        _hold(name, (PreDimValue(min(j, w) + s, k) + low).sign(S.alpha) >= 0,
              f"(c) delta(F'_{lvl}) + min delta(S'_{lvl}/F'_{lvl}) >= alpha*k - s")
        d_prev.update(new)
        width += s
    _hold(name, d_prev == S.id_set, "the levels cover S")
    certify_k_plus(S)
    return Check(name, True, method="certified")


def _zero_from(S, ids, col: int) -> bool:
    return not any(any(S.introw(i)[col:]) for i in ids)


def _keep_min(profile: dict, key, val: PreDimValue, alpha):
    prev = profile.get(key)
    if prev is None or compare(val, prev, alpha) < 0:
        profile[key] = val


def _block_profile(S2, old_width: int, ids, start: int, length: int) -> dict:
    """Table {(raw residue key, fresh rank): largest size} of a block's subsets.

    A point's row is its fresh columns [start, start + length) followed by its
    old columns [0, old_width).  Echelon rows of a subset with a fresh pivot
    give its fresh rank; the others span its raw residue over the old
    coordinates, keyed by their canonical integer rows.  Each (key, fresh
    rank) keeps the size of its largest subset, the empty set giving
    ((), 0): 0; subsets sharing both have one rank, so the largest has the
    least delta.  `pregeom.walk` meets the subsets in row order, with the
    echelon rows of a from-scratch elimination, in at most 2^k - 1 steps.  A
    zero-width block (start = old_width, length = 0) profiles points on the
    old coordinates alone.  Raises SearchBudgetExceeded for a point outside
    its columns or a block of more than BLOCK_PROFILE_LIMIT points.
    """
    ids = sorted(ids)
    rows = [S2.introw(eid) for eid in ids]
    if any(any(row[old_width:start]) or any(row[start + length:]) for row in rows):
        raise SearchBudgetExceeded("block escapes its fresh coordinates")
    if len(ids) > BLOCK_PROFILE_LIMIT:
        raise SearchBudgetExceeded(
            f"free-union block of {len(ids)} points exceeds {BLOCK_PROFILE_LIMIT}"
        )
    rows = [row[start:start + length] + row[:old_width] for row in rows]

    def take(state, j, row):  # state: size, fresh rank, (lead, old part)s, key
        size, rank_f, olds, key = state
        if any(row[:length]):
            rank_f += 1
        elif any(row):
            lead = next(c for c, x in enumerate(row) if x)
            olds = sorted([*olds, (lead, row[length:])])
            key = canonical_rows([r for _, r in olds])
        return size + 1, rank_f, olds, key

    table = {((), 0): 0}
    for _, (size, rank_f, _, key), _ in walk(rows, (0, 0, (), ()), take):
        if size > table.get((key, rank_f), -1):
            table[key, rank_f] = size
    return table


def _free_union_min(S2, prime_ids, old_width: int, blocks, profiles) -> PreDimValue:
    """Exact min of delta(A/prime) for a free union of patch copies over a base.

    `blocks` lists (ids, fresh_start, fresh_len) per copy and `profiles` the
    copies' `_block_profile` tables; a copy's payloads must be supported on
    the old coordinates plus its own fresh column block, everything else
    (prime set included) on the old coordinates alone.  Fresh columns are
    private to their block, so eliminating them is independent across blocks:
    delta decomposes into per-block profiles (fresh rank, size, residue span
    over the old coordinates) combined by an exact DP over the joint residue
    span.  The colored points outside the blocks and the prime form one more,
    zero-width block.

    The profiles do not depend on the prime, so one set serves every prime.
    Each table entry becomes PreDimValue(fresh rank, size) under its raw
    residue span mapped to its span modulo span(prime): the canonical integer
    rows are reduced against the prime and keyed again by the canonical
    integer rows of what is left.  Reducing a row is a linear projection
    times a nonzero scalar, so the reduced span is a function of the raw span
    alone, and the least value per reduced key is the least over the entries
    that map to it.  Which subset stands for a tied value may differ from a
    per-subset minimum, but no value does.  Raises SearchBudgetExceeded when
    the structure does not fit the shape.
    """
    prime = set(prime_ids)
    if not _zero_from(S2, prime, old_width):
        raise SearchBudgetExceeded("element escapes the old coordinates")
    prime_red = SpanReducer(old_width)
    for eid in sorted(prime):
        prime_red.add(S2.introw(eid)[:old_width])
    in_blocks = {i for ids, _, _ in blocks for i in ids}
    old_cands = S2.colored - prime - in_blocks
    if old_cands:
        profiles = [*profiles, _block_profile(S2, old_width, old_cands, old_width, 0)]

    states: dict[tuple, PreDimValue] = {(): ZERO}
    for table in profiles:
        profile: dict[tuple, PreDimValue] = {}
        for (raw_key, rank_f), size in table.items():
            key = span_key([prime_red.residual(r) for r in raw_key], old_width)
            _keep_min(profile, key, PreDimValue(rank_f, size), S2.alpha)
        nxt: dict[tuple, PreDimValue] = {}
        for srows, sval in states.items():
            for prows, pval in profile.items():
                _keep_min(nxt, span_key(srows + prows, old_width), sval + pval, S2.alpha)
        if len(nxt) > 4000:
            raise SearchBudgetExceeded("free-union residue states exploded")
        states = nxt
    best = ZERO
    for srows, sval in states.items():
        total = sval + PreDimValue(len(srows), 0)
        if compare(total, best, S2.alpha) < 0:
            best = total
    return best


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


def generic_basis_extension(a_ids, b_ids, n: int, S: ColoredStructure) -> Construction:
    """n fresh plain points in span(A u B) making every |B|-subset of B u D a
    base over A; realized on the rational moment curve over B."""
    if S.backend.kind == FREE:
        raise FreeBackendUnsupported("needs an indecomposable pregeometry")
    a = S.check_ids(a_ids)
    b = S.check_ids(b_ids)
    if n < 0:
        raise InputError("n must be a natural number")
    if n == 0:
        return Construction(S, [Check("all_bases", True)])
    bs = sorted(b - a)
    m = len(bs)
    if m == 0:
        raise NotIndependent("cannot extend the span of an empty independent set")
    if delta(S, bs, a).dim_part != m:
        raise NotIndependent("base set is not independent over the anchor")
    S2, new_ids = grow_patch(S, bs, 0, n, colored=False, prefix="g")
    _on_curve("all_bases", S2, bs, [(new_ids, S2.backend.ambient_dim, 0)])
    checks = [_certified("all_bases", (delta(S2, bs, a).dim_part == m, "B is independent over A"))]
    return Construction(S2, checks, copies=[new_ids])


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


def transcendental_patch(a_ids, b_ids, epsilon, S: ColoredStructure) -> Construction:
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
    window = PreDimValue(pair.s, pair.k).value(S.alpha)
    return _patch_union(S, a, b, pair, 1, "delta_gap", lambda res, gaps: [
        Check("window", window.sign() < 0 and (window + eps).sign() > 0),
        Check("delta_gap", all(g == res.delta_gap for g in gaps), method="certified"),
        _certified("generic_position"),
        _certified("interior_condition", _interior(pair.s, pair.k, S.alpha)),
    ])


def free_power_patch(a_ids, b_ids, mu, n: int, S: ColoredStructure) -> Construction:
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
    pair = dirichlet_window(S.alpha, min(terms) / 2)
    count = (gap.value(S.alpha) / -PreDimValue(pair.s, pair.k).value(S.alpha)).floor()
    return _patch_union(S, a, b, pair, count, "per_copy_gap", lambda res, gaps: [
        Check("per_copy_gap", all(g == res.delta_gap for g in gaps), method="certified"),
        Check("power_gap", (sum(gaps, gap).value(S.alpha) - mu_q).sign() < 0, method="certified"),
        _certified("small_sets_closed", _interior(pair.s, pair.k, S.alpha), (n <= pair.k, "n <= k")),
    ])


def _patch_union(S, a, b, pair: ApproximationPair, count: int, first: str, lead) -> Construction:
    """Grow `count` copies of the patch `pair` = (s, k) over B and verify
    their free union D*; a single patch is the union of one copy.

    Copy c continues the lambda sequence from 1 + c*k in its own s fresh
    columns, which follow S's columns; one `grow_patch` grows them all.
    `_on_curve` is read once, with all of S zero on the blocks, and raises
    naming `first`, the engine's first check to read it.  Each copy's
    delta(N_c/B) = min(k_c, s) - alpha*|colored of N_c| is read off by the
    curve lemma (b), and so is delta(D*/A) = delta(B/A) + their sum (d).
    `_fresh_block_union` certifies ambient K+ and whether A is closed in D*
    where its lemma applies.  Otherwise the DP `_free_union_min` over the
    copies' walked `_block_profile` tables decides both exhaustively, and
    where it cannot, the budgeted search of D* (`_dp_or_searched`).  The
    checks come in one order: the engine's own, `lead(result, gaps)` with
    `gaps` the copies' delta(N_c/B), then anchor_closed, transcendental and
    ambient_k_plus.  The engine's own are made first, so a check whose
    certificate fails raises before any table is walked.
    """
    s, k = pair.s, pair.k
    old_width = S.backend.ambient_dim
    S2, new_ids = grow_patch(S, b, s, k, colored=True, copies=count)
    copies = [new_ids[c * k:(c + 1) * k] for c in range(count)]
    res = Construction(S2, copies=copies, pair=pair)
    star = b | set(res.new_ids)
    blocks = _fresh_blocks(S2, copies, s)
    rank = _on_curve(first, S2, b, blocks, others=S.id_set)
    own = lead(res, [PreDimValue(min(len(ids), s), len(S2.colored.intersection(ids))) for ids in copies])
    verdicts = _fresh_block_union(S, S2, a, b, copies, pair, rank)
    method, tables = "certified" if verdicts else "exhaustive", []

    def dp(T, prime) -> bool:
        if not tables:
            tables.extend([_block_profile(S2, old_width, *blk) for blk in blocks])
        return _free_union_min(T, prime, old_width, blocks, tables).sign(S2.alpha) >= 0

    kp = verdicts["ambient_k_plus"] if verdicts else _dp_or_searched(
        "ambient_k_plus", lambda: dp(S2, ()), lambda: in_k_plus(S2, node_budget=VERIFY_NODE_BUDGET)
    )
    if kp:
        certify_k_plus(S2)
    sub = S2.restrict(star)  # made after the certificate, which it inherits
    anchor = verdicts["anchor_closed"] if verdicts else _dp_or_searched(
        "anchor_closed", lambda: dp(sub, a), lambda: is_closed(a, sub, node_budget=VERIFY_NODE_BUDGET)
    )
    res.checks = [
        *own,
        Check("anchor_closed", anchor, method=method),
        Check("transcendental", _transcendental_over(S2, star, a)),
        Check("ambient_k_plus", kp, method=method),
    ]
    _require(res.checks)
    return res


def _fresh_block_union(S, S2, a, b, copies, pair: ApproximationPair, rank: int):
    """The fresh-block lemma's verdicts {"ambient_k_plus": D* in K+,
    "anchor_closed": A <= B u copies}, or None where a hypothesis fails or a
    search on S overruns its budget.

    D* = S2 extends S by the copies N_1, ..., N_p; B = `b` lies within S and
    has rank `rank` = r, A = `a` lies within B, and (s, k) = `pair`.  The
    hypotheses, checked here (as are S in K+ and A <= B) but for (i), which
    the caller has checked:
      (i)   `_on_curve` holds for the copies' `_fresh_blocks` over B, with
            all of S, not only B, zero on the blocks;
      (ii)  s - alpha*(k - 1) >= 0 > g = s - alpha*k;
      (iii) each copy is k colored points and k >= r + s, so that B lies in
            its span and delta(N_c/B) = g (the curve lemma (c) and (b)).

    Lemma.  With mu = min_relative_delta(S, B):
      D* is in K+ iff S is and delta(B) + mu + p*g >= 0;
      A <= B u copies iff A <= B and delta(B/A) + p*g >= 0.

    Proof.  Let Y lie within D*, Y_S = Y n S, F the q copies within Y and Z
    = Y_S u (their union).  Projecting onto the blocks of the copies outside
    F kills Z by (i), and there each partial Y n N_c, of m < k points, has
    rank min(m, s) by the curve lemma (b); so delta(Y) >= delta(Z) plus
    terms min(m, s) - alpha*m, each >= 0 by alpha <= 1 up to s and by (ii)
    past it.  If q = 0, Z = Y_S.  If q >= 1, B lies in span(Z) by (iii),
    and projecting onto F's blocks (rank s per full copy) gives dim(Z) >=
    dim(Y_S u B) + q*s, with q*k colored points more than Y_S; so delta(Z)
    >= delta(Y_S u B) + q*g >= delta(B) + mu + p*g, as g < 0.  Conversely,
    for C within S attaining mu, Y = C u B u (all copies) has dim(Y) <=
    dim(C u B) + p*s by (iii) and p*k colored points more, so delta(Y) <=
    delta(B) + mu + p*g; and S lies within D*.  For A <= B u copies take Y
    with A within Y, so delta(Y/A) = delta(Y) - delta(A) and Y_S lies within
    B: if q = 0, delta(Y/A) >= delta(Y_S/A), and if q >= 1, delta(Y/A) >=
    delta(B/A) + p*g; B and B u copies attain both bounds.
    """
    s, k, alpha = pair.s, pair.k, S2.alpha
    if not (
        k >= rank + s
        and all(len(ids) == k and S2.colored.issuperset(ids) for ids in copies)
        and PreDimValue(s, k - 1).sign(alpha) >= 0 > PreDimValue(s, k).sign(alpha)
        and S2.id_set == S.id_set.union(*copies)
    ):
        return None
    try:
        s_ok = in_k_plus(S, VERIFY_NODE_BUDGET)
        mu, _ = min_relative_delta(S, b, VERIFY_NODE_BUDGET)
        a_ok = is_closed(a, S.restrict(b), VERIFY_NODE_BUDGET)
    except SearchBudgetExceeded:
        return None
    whole = PreDimValue(len(copies) * s, len(copies) * k)
    return {
        "ambient_k_plus": s_ok and (delta(S, b) + mu + whole).sign(alpha) >= 0,
        "anchor_closed": a_ok and (delta(S, b, a) + whole).sign(alpha) >= 0,
    }


# -- rational patches ----------------------------------------------------------


def rational_minimal_extension(a_ids, b_ids, t: int, S: ColoredStructure) -> Construction:
    """Minimal pair (B, D) with delta(D/B) = -1/n exactly and |D - B| > t."""
    if not S.alpha.is_rational:
        raise IrrationalAlpha("rational extension needs a rational coefficient")
    if S.alpha.num == S.alpha.den:
        raise AlphaOne("alpha = 1 admits no such pair")
    a, b, _ = _patch_preconditions(S, a_ids, b_ids, need_positive_gap=True)
    pair = rational_pair(S.alpha, t)
    exact = S.alpha.den * pair.s - S.alpha.num * pair.k == -1
    return _patch_union(S, a, b, pair, 1, "delta_exact", lambda res, gaps: [
        Check("delta_exact", exact and all(g == res.delta_gap for g in gaps), method="certified"),
        Check("size_exceeds_t", pair.k > t),
        _certified("generic_position"),
        _certified("minimal_pair", _interior(pair.s, pair.k, S.alpha), (
            gaps[0].sign(S.alpha) < 0, "delta(D/B) < 0"
        )),
    ])


def rational_zero_extension(a_ids, b_ids, t: int, S: ColoredStructure) -> Construction:
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
        return Construction(S, [Check("zero_gap", True)])
    pair = rational_pair(S.alpha, t)
    return _patch_union(S, a, b, pair, p, "per_copy_gap", lambda res, gaps: [
        Check("per_copy_gap", all(g == res.delta_gap for g in gaps), method="certified"),
        Check("zero_gap", sum(gaps, gap).sign(S.alpha) == 0, method="certified"),
        _certified("small_sets_closed", _interior(pair.s, pair.k, S.alpha), (t <= pair.k, "n <= k")),
    ])


# -- minimal pair chains --------------------------------------------------------


def chain_window(alpha: Alpha, level: int) -> QuadRat:
    """Window width (1 - alpha) / 2^level for the level-th chain step."""
    return (QuadRat.of(1) - alpha.value()) / (2**level)


def chain_pairs(alpha: Alpha, depth: int) -> list[ApproximationPair]:
    """Pairs of levels 1..depth: level l takes the least-k pair with
    0 < k*alpha - s < min((1 - alpha)/2^l, level l-1's k*alpha - s), so the
    drops s - k*alpha strictly increase even where two windows share their
    least-k pair.

    A window of at least alpha (level 1 for alpha <= 1/3), which
    `dirichlet_window` refuses, takes (1, k0) with k0 = floor(1/alpha) + 1:
    every k < k0 has floor(k*alpha) = 0, and 0 < k0*alpha - 1 < alpha since
    (k0 - 1)*alpha < 1 < k0*alpha."""
    if alpha.is_rational:
        raise RationalAlpha("chains need an irrational coefficient")
    pairs: list[ApproximationPair] = []
    for lvl in range(1, depth + 1):
        eps = chain_window(alpha, lvl)
        if pairs:
            prev_gap = -PreDimValue(pairs[-1].s, pairs[-1].k).value(alpha)
            if prev_gap < eps:
                eps = prev_gap
        if (eps - alpha.value()).sign() >= 0:
            pairs.append(ApproximationPair(1, _floor_ratio(1, alpha.value()) + 1))
        else:
            pairs.append(dirichlet_window(alpha, eps))
    return pairs


def minimal_pair_chain(alpha: Alpha, depth: int, ambient_budget: int) -> Construction:
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
    prev_drop = None
    for lvl, pair in enumerate(pairs, start=1):
        s, k = pair.s, pair.k
        w = chain_window(alpha, lvl)
        drop = PreDimValue(s, k).value(alpha)
        checks.append(Check(f"window_{lvl}", drop.sign() < 0 and (drop + w).sign() > 0))
        if prev_drop is not None:
            checks.append(Check(f"drops_increase_{lvl}", (drop - prev_drop).sign() > 0))
        prev_drop = drop
        d_prev = levels[-1].d_ids
        lam = 1 + sum(len(lv.f_ids) for lv in levels)
        S, f_ids = grow_patch(S, d_prev, s, k - s, colored=True, prefix="f", lam_start=lam)
        width = S.backend.ambient_dim
        e_ids = tuple(S.fresh_ids("e", s))
        units = {e: (1, [int(j == width - s + i) for j in range(width)]) for i, e in enumerate(e_ids)}
        S = S.extended(payloads=units, new_colored=e_ids)
        new = e_ids + f_ids
        _on_curve(f"generic_{lvl}", S, d_prev, _fresh_blocks(S, [new], s))
        below = PreDimValue(min(k, s), len(S.colored.intersection(new))).sign(alpha) < 0
        checks.append(_certified(f"generic_{lvl}"))
        checks.append(_certified(f"minimal_pair_{lvl}", _interior(s, k, alpha), (below, "delta(D/B) < 0")))
        levels.append(
            ChainLevel(
                d_ids=tuple(sorted(d_prev + new)),
                e_ids=e_ids,
                f_ids=f_ids,
                pair=pair,
            )
        )
    checks.append(_tower_k_plus_check(S, levels))
    _require(checks)
    copies = [lv.e_ids + lv.f_ids for lv in levels[1:]]
    return Construction(S, checks, copies=copies, levels=levels)
