import hashlib
import itertools
import random
import re
import sys
from dataclasses import replace
from fractions import Fraction as F

import pytest

from bicolor import construct, pregeom, workbench
from bicolor.closure import is_minimal_pair
from bicolor.colored import ColoredStructure, delta, empty_structure, in_k_plus, min_relative_delta
from bicolor.construct import (
    BLOCK_PROFILE_LIMIT,
    ChainLevel,
    _block_profile,
    _free_union_min,
    _fresh_block_union,
    _on_curve,
    _tower_k_plus_check,
    chain_pairs,
    chain_window,
    delta_system_closed_root,
    free_power_patch,
    generic_basis_extension,
    grow_patch,
    minimal_pair_chain,
    rational_minimal_extension,
    rational_zero_extension,
    transcendental_patch,
)
from bicolor.errors import (
    BudgetExceeded,
    FamilyTooSmall,
    FreeBackendUnsupported,
    GapTooSmall,
    InvariantError,
    IrrationalAlpha,
    NotClosed,
    NotIndependent,
    RationalAlpha,
    SearchBudgetExceeded,
)
from bicolor.exactnum import ZERO, Alpha, ApproximationPair, PreDimValue, QuadRat, compare
from bicolor.pregeom import Backend, FREE, GroundElement, LINEAR, SpanReducer, int_row, span_key
from bicolor.report import Check, canonical_dumps

from conftest import (
    ALL_ALPHAS,
    ALPHA_HALF,
    ALPHA_INV_SQRT2,
    ALPHA_ONE,
    ALPHA_TWO_THIRDS,
    SEARCH_ALPHAS,
    SubsetTable,
    _int_rows,
    brute_in_k_plus,
    incremental_in_k_plus,
    random_structure,
    rank_int_matrix,
    submasks,
)
from test_colored import ge


def _repeating(moment_rows):
    """`moment_rows` with its last point replaced by twice its first, so two
    points of a copy share one lambda.  The payload (m, row) of v becomes
    that of 2v: (m/2, row) for even m, else (m, 2*row)."""
    def rows(basis, width, count, lam_start=1):
        out = moment_rows(basis, width, count, lam_start)
        if count < 2:
            return out
        m, row = out[0]
        return out[:-1] + [(m // 2, row) if m % 2 == 0 else (m, [2 * x for x in row])]

    return rows


def plain_points(alpha, coords):
    dim = len(coords[0])
    elements = tuple(
        GroundElement(f"b{i+1}", tuple(F(x) for x in vec)) for i, vec in enumerate(coords)
    )
    return ColoredStructure(Backend(LINEAR, dim), elements, frozenset(), alpha)


class TestGenericBasisExtension:
    def test_zero_count(self):
        S = plain_points(ALPHA_ONE, [(1, 0)])
        res = generic_basis_extension([], ["b1"], 0, S)
        assert res.new_ids == ()
        assert res.structure is S

    def test_spec_moment_example(self):
        S = plain_points(ALPHA_ONE, [(1, 0, 0), (0, 1, 0)])
        res = generic_basis_extension([], ["b1", "b2"], 2, S)
        vecs = {res.structure.element(i).vec for i in res.new_ids}
        assert vecs == {(F(1), F(1), F(0)), (F(1), F(2), F(0))}
        # all 6 pairs from B u D have rank 2
        pool = sorted(set(res.new_ids) | {"b1", "b2"})
        for pair in itertools.combinations(pool, 2):
            assert delta(res.structure, pair).dim_part == 2

    def test_free_backend_rejected(self):
        S = ColoredStructure(Backend(FREE), (GroundElement("x"),), frozenset(), ALPHA_ONE)
        with pytest.raises(FreeBackendUnsupported):
            generic_basis_extension([], ["x"], 1, S)

    def test_dependent_base_rejected(self):
        S = plain_points(ALPHA_ONE, [(1, 0), (2, 0)])
        with pytest.raises(NotIndependent):
            generic_basis_extension([], ["b1", "b2"], 1, S)

    def test_over_anchor(self):
        S = plain_points(ALPHA_HALF, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        res = generic_basis_extension(["b1"], ["b2", "b3"], 3, S)
        pool = sorted(set(res.new_ids) | {"b2", "b3"})
        for pair in itertools.combinations(pool, 2):
            assert delta(res.structure, pair, ["b1"]).dim_part == 2

    @pytest.mark.parametrize("m, n", [(1, 3), (2, 4), (3, 5), (5, 30)])
    def test_all_bases_certified(self, m, n):
        # points c*(b_1 + lam*b_2 + ...) over the base: every m-subset is a
        # base by Descartes' rule, with no sweep; the sweep agrees where small
        S = plain_points(ALPHA_HALF, [tuple(int(i == j) for j in range(m + 1)) for i in range(m)])
        bs = [f"b{i + 1}" for i in range(m)]
        res = generic_basis_extension([], bs, n, S)
        assert res.checks == [Check("all_bases", True, method="certified")]
        if n < 10:
            t = SubsetTable(res.structure)
            pool = t.mask_of(set(bs) | set(res.new_ids))
            assert all(t.dim[sub] == m for sub in submasks(pool) if bin(sub).count("1") == m)

    def test_off_the_curve_raises(self, monkeypatch):
        S = plain_points(ALPHA_HALF, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        S2, ids = grow_patch(S, ["b2", "b3"], 0, 3, colored=False, prefix="g")
        copy = [(ids, 3, 0)]
        assert _on_curve("all_bases", S2, ["b2", "b3"], copy) == 2
        # g3 = b2 + 3*b3 moved to b2 + 2*b3 = g2: {g2, g3} is no base
        broken = _perturbed(S2, "g3", -1)
        with pytest.raises(InvariantError, match="^all_bases: the lambdas and unit points of copy 1 are distinct"):
            _on_curve("all_bases", broken, ["b2", "b3"], copy)
        t = SubsetTable(broken)
        assert t.delta_pair(t.mask_of(["g2", "g3"]), t.mask_of(["b1"])) == (1, 0)
        # the points lie outside span(b1, b2)
        with pytest.raises(InvariantError, match="^all_bases: each point of copy 1 is on its moment curve"):
            _on_curve("all_bases", S2, ["b1", "b2"], copy)
        # an extension whose points repeat a lambda raises, naming the check
        monkeypatch.setattr(construct, "_moment_rows", _repeating(construct._moment_rows))
        with pytest.raises(InvariantError, match="^all_bases: the lambdas and unit points of copy 1 are distinct"):
            generic_basis_extension(["b1"], ["b2", "b3"], 3, S)


class TestDeltaSystem:
    def _pool(self, alpha=ALPHA_ONE, n_extra=6):
        dim = 1 + n_extra
        elems = [ge("x", *([1] + [0] * n_extra))]
        colored = []
        for i in range(n_extra):
            vec = [0] * dim
            vec[i + 1] = 1
            elems.append(ge(f"y{i}", *vec))
            colored.append(f"y{i}")
        return ColoredStructure(Backend(LINEAR, dim), tuple(elems), frozenset(colored), alpha)

    def test_disjoint_singletons(self):
        S = self._pool()
        fam = [frozenset({f"y{i}"}) for i in range(5)]
        res = delta_system_closed_root(fam, 3, S)
        assert res.root == frozenset()
        assert len(res.indices) >= 3

    def test_shared_plain_core(self):
        S = self._pool()
        fam = [frozenset({"x", f"y{i}"}) for i in range(5)]
        res = delta_system_closed_root(fam, 3, S)
        assert res.root == {"x"}
        assert len(res.indices) >= 3
        assert res.discarded <= res.discard_bound

    def test_family_too_small(self):
        S = self._pool()
        fam = [frozenset({"x", "y0"}), frozenset({"x", "y1"})]
        with pytest.raises(FamilyTooSmall):
            delta_system_closed_root(fam, 3, S)

    def test_root_not_closed_is_discarded(self):
        # a colored point parallel to x makes {x} non-closed in that member
        alpha = ALPHA_TWO_THIRDS
        elems = [ge("x", 1, 0, 0, 0, 0), ge("p", 2, 0, 0, 0, 0)]
        colored = ["p"]
        for i in range(4):
            vec = [0] * 5
            vec[i + 1] = 1
            elems.append(ge(f"y{i}", *vec))
            colored.append(f"y{i}")
        S = ColoredStructure(Backend(LINEAR, 5), tuple(elems), frozenset(colored), alpha)
        assert in_k_plus(S)
        fam = [frozenset({"x", "p"})] + [frozenset({"x", f"y{i}"}) for i in range(4)]
        res = delta_system_closed_root(fam, 3, S)
        assert res.root == {"x"}
        assert 0 not in res.indices
        assert res.discarded == 1
        assert len(res.indices) >= 3


class TestTranscendentalPatch:
    def _base(self):
        return plain_points(ALPHA_INV_SQRT2, [(1,)])

    def test_window_third(self):
        res = transcendental_patch([], ["b1"], F(1, 3), self._base())
        assert res.pair == ApproximationPair(2, 3)
        assert res.delta_gap == PreDimValue(2, 3)
        val = res.delta_gap.value(ALPHA_INV_SQRT2)
        assert val.sign() < 0 and (val + F(1, 3)).sign() > 0
        assert all(c.passed for c in res.checks)

    def test_window_tenth(self):
        res = transcendental_patch([], ["b1"], F(1, 10), self._base())
        assert res.pair == ApproximationPair(7, 10)
        val = res.delta_gap.value(ALPHA_INV_SQRT2)
        assert val.sign() < 0 and (val + F(1, 10)).sign() > 0

    def test_interior_condition_exhaustive(self):
        S = self._base()
        res = transcendental_patch([], ["b1"], F(1, 10), S)
        S2 = res.structure
        dB = delta(S2, ["b1"])
        for size in range(1, len(res.new_ids)):
            for combo in itertools.combinations(sorted(res.new_ids), size):
                dD = delta(S2, set(combo) | {"b1"})
                assert (dD - dB).sign(S2.alpha) >= 0

    def test_rational_rejected(self):
        S = plain_points(ALPHA_TWO_THIRDS, [(1,)])
        with pytest.raises(RationalAlpha):
            transcendental_patch([], ["b1"], F(1, 3), S)

    def test_gap_too_small(self):
        S = self._base()
        with pytest.raises(GapTooSmall):
            transcendental_patch(["b1"], ["b1"], F(1, 3), S)

    def test_anchor_not_closed(self):
        alpha = ALPHA_INV_SQRT2
        S = ColoredStructure(
            Backend(LINEAR, 1),
            (ge("a", 1), ge("c", 2)),
            frozenset({"c"}),
            alpha,
        )
        assert in_k_plus(S)
        with pytest.raises(NotClosed):
            transcendental_patch(["a"], ["a", "c"], F(1, 4), S)


class TestFreePowerPatch:
    def test_vacuous_small_condition(self):
        S = plain_points(ALPHA_INV_SQRT2, [(1,)])
        res = free_power_patch([], ["b1"], F(1, 2), 1, S)
        assert all(c.passed for c in res.checks)

    def test_spec_example_two_independents(self):
        S = plain_points(ALPHA_INV_SQRT2, [(1, 0), (0, 1)])
        res = free_power_patch([], ["b1", "b2"], F(1, 2), 2, S)
        star = res.structure
        gap = delta(star, star.id_set).value(star.alpha)
        assert (gap - F(1, 2)).sign() < 0
        assert gap.sign() > 0  # anchor empty stays closed
        assert all(c.passed for c in res.checks)

    def test_union_is_extended_once(self, monkeypatch):
        """All copies of a free union grow in one `extended`, so the earlier
        points are padded once, however many copies there are."""
        widths = []
        original = ColoredStructure.extended

        def counted(self, *args, **kwargs):
            widths.append(kwargs.get("widen_by", 0))
            return original(self, *args, **kwargs)

        S = plain_points(ALPHA_INV_SQRT2, [(1, 0), (0, 1)])
        monkeypatch.setattr(ColoredStructure, "extended", counted)
        res = free_power_patch([], ["b1", "b2"], F(1, 2), 2, S)
        assert len(res.copies) == 16 and widths == [16 * res.pair.s]
        assert res.structure.backend.ambient_dim == 2 + 16 * res.pair.s

    def test_large_mu_trivial(self):
        S = plain_points(ALPHA_INV_SQRT2, [(1,)])
        res = free_power_patch([], ["b1"], F(10), 1, S)
        gap = delta(res.structure, res.structure.id_set).value(res.structure.alpha)
        assert (gap - F(10)).sign() < 0

    def test_rational_rejected(self):
        S = plain_points(ALPHA_HALF, [(1,)])
        with pytest.raises(RationalAlpha):
            free_power_patch([], ["b1"], F(1, 2), 1, S)


class TestRationalMinimalExtension:
    def test_t0(self):
        S = plain_points(ALPHA_TWO_THIRDS, [(1,)])
        res = rational_minimal_extension([], ["b1"], 0, S)
        assert res.pair == ApproximationPair(1, 2)
        gap = res.delta_gap.value(S.alpha)
        assert gap == QuadRat.of(F(-1, 3))
        d_ids = {"b1"} | set(res.new_ids)
        assert is_minimal_pair(["b1"], d_ids, res.structure)

    def test_t1(self):
        S = plain_points(ALPHA_TWO_THIRDS, [(1,)])
        res = rational_minimal_extension([], ["b1"], 1, S)
        assert res.pair == ApproximationPair(9, 14)
        assert len(res.new_ids) == 14 > 1
        assert res.delta_gap.value(S.alpha) == QuadRat.of(F(-1, 3))

    def test_irrational_rejected(self):
        S = plain_points(ALPHA_INV_SQRT2, [(1,)])
        with pytest.raises(IrrationalAlpha):
            rational_minimal_extension([], ["b1"], 0, S)


class TestRationalZeroExtension:
    def test_unit_base(self):
        S = plain_points(ALPHA_TWO_THIRDS, [(1,)])
        res = rational_zero_extension([], ["b1"], 0, S)
        assert len(res.copies) == 3
        total = delta(res.structure, {"b1"} | set(res.new_ids))
        assert total.sign(S.alpha) == 0

    def test_zero_gap_base(self):
        # delta(B/A) = 0 forces no copies: parallel colored pair at alpha 1/2
        S = ColoredStructure(
            Backend(LINEAR, 1),
            (ge("b1", 1), ge("b2", 2)),
            frozenset({"b1", "b2"}),
            ALPHA_HALF,
        )
        res = rational_zero_extension([], ["b1", "b2"], 2, S)
        assert res.copies == []
        assert res.structure is S

    def test_irrational_rejected(self):
        S = plain_points(ALPHA_INV_SQRT2, [(1,)])
        with pytest.raises(IrrationalAlpha):
            rational_zero_extension([], ["b1"], 0, S)

    def test_small_sets_stay_closed(self):
        S = plain_points(ALPHA_TWO_THIRDS, [(1,)])
        res = rational_zero_extension([], ["b1"], 1, S)
        # every extension of B inside D* by fewer than t points is closed:
        # here t = 1, so only C = B, trivially closed in D* restriction
        assert all(c.passed for c in res.checks)


class TestMinimalPairChain:
    def test_depth_zero(self):
        res = minimal_pair_chain(ALPHA_INV_SQRT2, 0, 8)
        assert len(res.levels) == 1
        assert res.levels[0].pair is None

    def test_depth_one(self):
        res = minimal_pair_chain(ALPHA_INV_SQRT2, 1, 8)
        assert res.levels[1].pair == ApproximationPair(2, 3)
        w = chain_window(ALPHA_INV_SQRT2, 1)
        drop = PreDimValue(2, 3).value(ALPHA_INV_SQRT2)
        assert drop.sign() < 0 and (drop + w).sign() > 0

    def test_pairs_frozen_from_scan(self):
        assert chain_pairs(ALPHA_INV_SQRT2, 3) == [
            ApproximationPair(2, 3),
            ApproximationPair(7, 10),
            ApproximationPair(12, 17),
        ]

    def test_pairs_shrink_when_windows_share_a_pair(self):
        # at 1/sqrt(3) the least-k pair of windows 2 and 3 is (4, 7) for both;
        # level 3 must take the next pair with a strictly smaller k*alpha - s
        assert chain_pairs(Alpha.quadratic(0, 1, 3, 3), 3) == [
            ApproximationPair(1, 2),
            ApproximationPair(4, 7),
            ApproximationPair(15, 26),
        ]

    def test_golden_chain_builds_exactly(self):
        # windows 1 and 2 both hold (3, 5) at (sqrt(5) - 1)/2
        res = minimal_pair_chain(Alpha.quadratic(-1, 1, 2, 5), 2, 32)
        assert [lv.pair for lv in res.levels[1:]] == [ApproximationPair(3, 5), ApproximationPair(8, 13)]
        assert [c.name for c in res.checks if c.name.startswith("drops")] == ["drops_increase_2"]
        assert all(c.passed for c in res.checks)
        certified = ["generic_1", "minimal_pair_1", "generic_2", "minimal_pair_2", "ambient_k_plus"]
        assert [c.name for c in res.checks if c.method != "exhaustive"] == certified
        assert res.checks[-1].method == "certified"

    @pytest.mark.parametrize("alpha, depth, pairs", [
        (Alpha.quadratic(0, 1, 6, 2), 1, [(1, 5)]),
        (Alpha.quadratic(0, 1, 6, 2), 2, [(1, 5), (2, 9)]),
        (Alpha.quadratic(-1, 1, 4, 2), 1, [(1, 10)]),
    ], ids=["sqrt2/6-1", "sqrt2/6-2", "(sqrt2-1)/4-1"])
    def test_small_alpha(self, alpha, depth, pairs):
        # alpha <= 1/3: level 1's window (1 - alpha)/2 is at least alpha, where
        # the least-k pair is (1, floor(1/alpha) + 1)
        res = minimal_pair_chain(alpha, depth, 8)
        assert [(lv.pair.s, lv.pair.k) for lv in res.levels[1:]] == pairs
        assert all(c.passed for c in res.checks)
        assert res.checks[-1] == Check("ambient_k_plus", True, method="certified")
        S = res.structure
        assert incremental_in_k_plus(S)
        t = SubsetTable(S)
        for lo, hi in zip(res.levels, res.levels[1:]):
            b, new = t.mask_of(lo.d_ids), t.mask_of(hi.d_ids) ^ t.mask_of(lo.d_ids)
            assert t.delta_sign(new, b) < 0
            assert all(t.delta_sign(c, b) >= 0 for c in submasks(new) if c != new)

    def test_depth_two_minimal_pairs(self):
        res = minimal_pair_chain(ALPHA_INV_SQRT2, 2, 16)
        S = res.structure
        for lo, hi in zip(res.levels, res.levels[1:]):
            assert is_minimal_pair(lo.d_ids, hi.d_ids, S)

    def test_rational_rejected(self):
        with pytest.raises(RationalAlpha):
            minimal_pair_chain(ALPHA_TWO_THIRDS, 1, 8)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            minimal_pair_chain(ALPHA_INV_SQRT2, 3, 5)

    def test_colors(self):
        res = minimal_pair_chain(ALPHA_INV_SQRT2, 1, 8)
        S = res.structure
        assert "d0" not in S.colored
        assert set(res.levels[1].e_ids) | set(res.levels[1].f_ids) <= S.colored


class TestExactPastDeskScale:
    """Chains and patches past the sweeps' limits end with every check
    exhaustive or certified."""

    @pytest.mark.parametrize(
        "alpha, depth, budget",
        [
            (ALPHA_INV_SQRT2, 3, 32),
            (Alpha.quadratic(1, 1, 6, 3), 3, 32),
            (Alpha.quadratic(0, 1, 3, 3), 3, 32),
            (Alpha.quadratic(-1, 1, 2, 5), 3, 64),
            (ALPHA_INV_SQRT2, 4, 256),
        ],
        ids=["1/sqrt2-3", "(1+sqrt3)/6-3", "1/sqrt3-3", "(sqrt5-1)/2-3", "1/sqrt2-4"],
    )
    def test_chain(self, alpha, depth, budget):
        res = minimal_pair_chain(alpha, depth, budget)
        assert all(c.passed for c in res.checks)
        assert {c.method for c in res.checks} <= {"exhaustive", "certified"}
        assert res.checks[-1] == Check("ambient_k_plus", True, method="certified")

    @pytest.mark.parametrize("engine", [rational_minimal_extension, rational_zero_extension])
    def test_rank_two_base(self, engine):
        # copies of 68 points over two plain points: the fresh-block lemma
        # certifies both union checks, where a K+ search overran 150k nodes
        S = plain_points(ALPHA_TWO_THIRDS, [(1, 0), (0, 1)])
        res = engine([], ["b1", "b2"], 2, S)
        assert (res.pair.s, res.pair.k) == (45, 68)
        assert len(res.copies) == (1 if engine is rational_minimal_extension else 6)
        assert all(c.passed and c.method in ("exhaustive", "certified") for c in res.checks)
        union = {c.name: c.method for c in res.checks if c.name in ("anchor_closed", "ambient_k_plus")}
        assert union == {"anchor_closed": "certified", "ambient_k_plus": "certified"}

    def test_rational_minimal_extension(self):
        res = rational_minimal_extension([], ["b"], 2, _one_point(ALPHA_TWO_THIRDS))
        assert (res.pair.s, res.pair.k) == (45, 68)
        certified = ["delta_exact", "generic_position", "minimal_pair", "anchor_closed", "ambient_k_plus"]
        assert [c.name for c in res.checks if c.method == "certified"] == certified
        assert all(c.passed and c.method in ("exhaustive", "certified") for c in res.checks)


def _gamma(basis, width: int, start: int, s: int, lam) -> list:
    """sum_i lam^(i-1)*u_i, u being the `basis` vectors and then the unit
    vectors of the columns [start, start + s), as `Fraction`s."""
    vec = [F(0)] * width
    for i, v in enumerate(basis):
        for j, x in enumerate(v):
            vec[j] += lam**i * x
    for t in range(s):
        vec[start + t] += lam ** (len(basis) + t)
    return vec


class TestOnCurve:
    """`_on_curve` against brute-force subset ranks (conftest's `SubsetTable`,
    Bareiss rank on cleared payloads), on layouts of at most 13 points: a
    base B of rank 0 to 3 with a dependent point at times, a point of S
    outside B, and one or two copies of at most 10 points in all, with s in
    {0, 1, 2, 3}, whose points are c*gamma(lam) at random c > 0 and distinct
    lam > 0, or units of their block, built here from the basis B picks in
    id order.  Where it holds, each statement of the curve lemma holds on
    the table: (a) any r + s points of a copy are independent, (b) dim(C/B)
    = sum of min(|C n N_c|, s), (c) B lies in span(N_c) iff k >= r + s (for
    k >= s), (d) dim(B u copies / A) = dim(B/A) + sum of min(k_c, s).  Each
    broken rule raises InvariantError naming it."""

    @staticmethod
    def _layout(rng, r, s, sizes):
        """(S, B ids, other ids, blocks, the basis vectors, per copy its
        (c, lam or unit position) parts)."""
        w = max(r, 1) + rng.randint(0, 1)
        width = w + len(sizes) * s
        while True:
            base = [[rng.randint(-2, 2) for _ in range(w)] for _ in range(r)]
            if rank_int_matrix(base, w) == r:
                break
        if r >= 2 and rng.random() < 0.5:
            base.insert(rng.randrange(len(base) + 1), [x + y for x, y in zip(base[0], base[1])])
        pad = lambda row: [F(x) for x in row] + [F(0)] * (width - w)
        b_ids = [f"b{i}" for i in range(len(base))]
        kept = []
        for i, row in enumerate(base):
            if rank_int_matrix([base[j] for j in kept] + [row], w) > len(kept):
                kept.append(i)
        basis = [pad(base[i]) for i in kept]
        elems = [GroundElement(i, tuple(pad(row))) for i, row in zip(b_ids, base)]
        elems.append(GroundElement("x", tuple(pad([1] + [0] * (w - 1)))))
        blocks, parts = [], []
        for c, k in enumerate(sizes):
            start = w + c * s
            units = rng.sample(range(s), rng.randint(0, min(s, k))) if s and r + s > 1 else []
            lams = set()
            while len(lams) < k - len(units):
                lams.add(F(rng.randint(1, 6), rng.randint(1, 3)) if r + s > 1 else F(1))
                if r + s == 1:
                    break
            nodes = [("unit", t) for t in units] + sorted(lams)
            while len(nodes) < k:  # r + s = 1: every point is a multiple of u_1
                nodes.append(F(1))
            rng.shuffle(nodes)
            ids = tuple(f"n{c}_{i}" for i in range(k))
            copy = []
            for eid, node in zip(ids, nodes):
                scale = F(rng.randint(1, 4), rng.randint(1, 2))
                if isinstance(node, tuple):
                    vec = [F(0)] * width
                    vec[start + node[1]] = scale
                else:
                    vec = [scale * x for x in _gamma(basis, width, start, s, node)]
                elems.append(GroundElement(eid, tuple(vec)))
                copy.append(node)
            blocks.append((ids, start, s))
            parts.append(copy)
        colored = [e.id for e in elems if rng.random() < 0.5]
        S = ColoredStructure(Backend(LINEAR, width), tuple(elems), frozenset(colored), ALPHA_INV_SQRT2)
        return S, b_ids, ["x"], blocks, basis, parts

    def test_lemma_on_subset_tables(self, rng):
        seen = set()
        for trial in range(48):
            r, s = trial % 4, trial // 4 % 4
            if r + s == 0:
                continue
            ncopies = 1 + trial % 3 // 2
            sizes = [rng.randint(1, 10 // ncopies) for _ in range(ncopies)]
            S, b_ids, others, blocks, basis, _ = self._layout(rng, r, s, sizes)
            assert _on_curve("x", S, b_ids, blocks, others) == r
            t = SubsetTable(S)
            over = t.mask_of(b_ids)
            masks = [t.mask_of(ids) for ids, _, _ in blocks]
            for mask, k in zip(masks, sizes):
                assert t.dim[mask] == min(k, r + s)
                assert all(t.dim[sub] == bin(sub).count("1") for sub in submasks(mask)
                           if bin(sub).count("1") <= r + s)
                if k >= s:
                    assert (t.dim[mask | over] == t.dim[mask]) == (k >= r + s)
                seen |= {("k < r + s", k < r + s), ("s", min(s, 2))}
            union = sum(masks)
            for sub in submasks(union):
                want = sum(min(bin(sub & mask).count("1"), s) for mask in masks)
                assert t.delta_pair(sub, over)[0] == want
            for a in submasks(over):
                assert t.delta_pair(over | union, a)[0] == t.delta_pair(over, a)[0] + sum(min(k, s) for k in sizes)
            seen.add(("copies", ncopies))
        assert seen == {("k < r + s", True), ("k < r + s", False), ("copies", 1), ("copies", 2)} | {
            ("s", s) for s in range(3)
        }

    def _broken(self, rng, case):
        """(S, B ids, blocks, rule) of a layout with one rule broken."""
        s = 1 if "s = 1" in case else 0 if "s = 0" in case else rng.randint(2, 3)
        r = 3 if s == 0 else 2 if s == 1 else rng.randint(1, 2)
        two = case == "entry on a foreign block"
        curve = []
        while len(curve) < 2:
            S, b_ids, _, blocks, basis, parts = self._layout(rng, r, s, [3, 3] if two else [4])
            ids, start, _ = blocks[0]
            curve = [eid for eid, node in zip(ids, parts[0]) if not isinstance(node, tuple)]
        width = S.backend.ambient_dim
        vecs = {e.id: list(e.vec) for e in S.elements}
        first, last = curve[0], curve[-1]
        rule = "each point of copy 1 is on its moment curve"
        if case.startswith("repeated lambda"):
            vecs[last] = [2 * x for x in vecs[first]]
            rule = "the lambdas and unit points of copy 1 are distinct"
        elif case == "repeated unit":
            vecs[first], vecs[last] = ([F(j == start) * x for j in range(width)] for x in (1, 3))
            rule = "the lambdas and unit points of copy 1 are distinct"
        elif case.startswith("c <= 0"):
            vecs[last] = [-x for x in vecs[last]]
            rule = "c > 0 at each point of copy 1"
        elif case == "negative unit":
            vecs[last] = [F(-(j == start)) for j in range(width)]
            rule = "c > 0 at each point of copy 1"
        elif case == "lambda < 0":
            vecs[last] = _gamma(basis, width, start, s, F(-rng.randint(1, 3)))
            rule = "the lambdas of copy 1 are positive"
        elif case.startswith("old part off the curve"):  # the coefficient of v_r moves alone
            vecs[last] = [x + y for x, y in zip(vecs[last], basis[-1])]
        elif case == "entry on a foreign block":
            vecs[last][blocks[1][1]] = F(1)
            rule = "each point of copy 1 is zero off B's columns and its block"
        elif case == "base on a block":
            vecs[b_ids[-1]][start] = F(1)
            rule = "B is zero on the fresh blocks"
        elif case == "block past the columns":
            blocks = [(ids, start + 1, s)]
            rule = "the fresh blocks lie within the columns, disjoint"
        elems = tuple(GroundElement(e.id, tuple(vecs[e.id])) for e in S.elements)
        return ColoredStructure(S.backend, elems, S.colored, S.alpha), b_ids, blocks, rule

    @pytest.mark.parametrize("case", [
        "repeated lambda", "repeated lambda, s = 1", "repeated lambda, s = 0", "repeated unit",
        "c <= 0", "c <= 0, s = 1", "c <= 0, s = 0", "negative unit", "lambda < 0",
        "old part off the curve", "old part off the curve, s = 1", "old part off the curve, s = 0",
        "entry on a foreign block", "base on a block", "block past the columns",
    ])
    def test_broken_rows_raise(self, rng, case):
        for _ in range(6):
            S, b_ids, blocks, rule = self._broken(rng, case)
            with pytest.raises(InvariantError, match=f"^check: {re.escape(rule)} does not hold on the result$"):
                _on_curve("check", S, b_ids, blocks)


QUADRATIC_ALPHAS = [
    Alpha.quadratic(0, 1, 2, 2),  # 1/sqrt(2)
    Alpha.quadratic(-1, 1, 1, 2),  # sqrt(2) - 1
    Alpha.quadratic(0, 1, 3, 3),  # 1/sqrt(3)
    Alpha.quadratic(-1, 1, 2, 5),  # (sqrt(5) - 1)/2
    Alpha.quadratic(1, 1, 6, 3),  # (1 + sqrt(3))/6
    Alpha.quadratic(0, 1, 5, 5),  # 1/sqrt(5)
    Alpha.quadratic(0, 1, 4, 3),  # sqrt(3)/4
]


def _tower(alpha, d0, levels, extra=(), plain=()):
    """A hand-made chain: plain D_0 rows, then per level its (E rows, F rows),
    every row of one width; `extra` rows are colored points on no level and
    `plain` lists level points left uncolored.  Returns the structure and
    its ChainLevels, as the chain engine makes them."""
    elems = [ge(f"d{i}", *r) for i, r in enumerate(d0)]
    d_ids = tuple(e.id for e in elems)
    levels_out = [ChainLevel(d_ids, d_ids, (), None)]
    colored = [f"x{i}" for i in range(len(extra))]
    elems += [ge(i, *r) for i, r in zip(colored, extra)]
    for lvl, (e_rows, f_rows) in enumerate(levels, start=1):
        e_ids = tuple(f"e{lvl}_{i}" for i in range(len(e_rows)))
        f_ids = tuple(f"f{lvl}_{i}" for i in range(len(f_rows)))
        elems += [ge(i, *r) for i, r in zip(e_ids + f_ids, [*e_rows, *f_rows])]
        colored += [i for i in e_ids + f_ids if i not in plain]
        d_ids = tuple(sorted(d_ids + e_ids + f_ids))
        levels_out.append(ChainLevel(d_ids, e_ids, f_ids, None))
    S = ColoredStructure(Backend(LINEAR, len(d0[0])), tuple(elems), frozenset(colored), alpha)
    return S, levels_out


# Depth-1 chain level at 1/sqrt(2): pair (2, 3) over d0.
_LEVEL_ONE = ([(0, 1, 0), (0, 0, 1)], [(1, 1, 1)])


def _units(first: int, count: int, width: int) -> list:
    """The unit rows of columns first, ..., first + count - 1."""
    return [tuple(int(j == first + i) for j in range(width)) for i in range(count)]


def _curve_rows(lams, n: int, width: int) -> list:
    """gamma(lam) = (1, lam, ..., lam^(n-1)) padded to `width`, per lam: the
    moment curve over unit basis vectors in column order, as a tower over
    d0 and its levels' E points has it."""
    return [tuple(lam**i for i in range(n)) + (0,) * (width - n) for lam in lams]


class TestTowerKPlus:
    """The chain's level-by-level K+ certificate, against brute-force subset
    tables.  Each hand-made tower below breaks one shape rule or one of the
    conditions (a)-(c), and nothing else, and the certificate raises naming
    that rule: nothing searches the tower itself."""

    def test_incremental_oracle_matches_subset_table(self):
        rng = random.Random(0x0AC1E)
        for i in range(120):
            S = random_structure(rng, ALL_ALPHAS[i % 4], max_n=7, max_dim=4, color_p=0.5)
            assert incremental_in_k_plus(S) == brute_in_k_plus(S)

    @pytest.mark.parametrize("alpha", QUADRATIC_ALPHAS, ids=lambda a: a.render())
    def test_chains_agree_with_subset_tables(self, alpha):
        for depth in (1, 2):
            if sum(p.k for p in chain_pairs(alpha, depth)) > 13:
                continue
            res = minimal_pair_chain(alpha, depth, 32)
            assert res.checks[-1] == Check("ambient_k_plus", True, method="certified")
            assert incremental_in_k_plus(res.structure)

    def test_random_towers_agree_with_subset_tables(self):
        # every certified tower is in K+, and no tower outside K+ is certified
        rng = random.Random(0x70E5)
        seen = set()
        for trial in range(160):
            alpha = QUADRATIC_ALPHAS[trial % len(QUADRATIC_ALPHAS)]
            width = rng.randint(1, 2)
            d0 = [
                tuple(rng.choice([-1, 1, 2]) if j == i % width else 0 for j in range(width))
                for i in range(rng.randint(1, 2))
            ]
            levels = []
            for _ in range(rng.randint(1, 2)):
                s, f_count = rng.randint(1, 2), rng.randint(0, 2)
                e_rows = [tuple(int(j == width + i) for j in range(width + s)) for i in range(s)]
                f_rows = [
                    tuple(rng.randint(-2, 2) for _ in range(width))
                    + tuple(rng.randint(1, 3) for _ in range(s))
                    for _ in range(f_count)
                ]
                levels.append((e_rows, f_rows))
                width += s
            pad = lambda r: tuple(r) + (0,) * (width - len(r))
            d0 = [pad(r) for r in d0]
            levels = [([pad(r) for r in e], [pad(r) for r in f]) for e, f in levels]
            S, lvls = _tower(alpha, d0, levels)
            in_k = incremental_in_k_plus(S)
            try:
                check = _tower_k_plus_check(S, lvls)
            except InvariantError as e:
                assert str(e).startswith("ambient_k_plus: ")
                seen.add(("raised", in_k))
                continue
            assert check == Check("ambient_k_plus", True, method="certified") and in_k
            seen.add(("certified", in_k))
        assert seen == {("certified", True), ("raised", True), ("raised", False)}

    NEGATIVE = {
        # {e1, e2, f2}: rank 2, three colored
        "a_dependent_s_subset": (
            [(1, 0, 0, 0)],
            [([(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], [(1, 1, 1, 1), (0, 1, 1, 0)])],
            (),
            "(a) at level 1: each point of copy 1 is on its moment curve",
        ),
        # s = 1, k = 4 on the curve: d0 and the three F points have rank 2
        # and three colored points
        "b_level_too_long": (
            [(1, 0)], [([(0, 1)], _curve_rows((1, 2, 3), 2, 2))], (),
            "(b) s - alpha*(k - 1) >= 0 at level 1",
        ),
        # pairs (3, 5) twice: j = 2 < w = 4 at level 2, where the search of
        # S'_2 finds the drop, and D_2 has delta 7 - 10*alpha < 0
        "c_searched_at_level_2": (
            [(1,) + (0,) * 6],
            [(_units(1, 3, 7), _curve_rows((1, 2), 4, 7)), (_units(4, 3, 7), _curve_rows((3, 4), 7, 7))],
            (),
            "(c) delta(F'_2) + min delta(S'_2/F'_2) >= alpha*k - s",
        ),
        # pairs (1, 2) then (5, 8): j = 3 >= w = 2 at level 2, where (c) is
        # delta(D_1) + 5 - 8*alpha = 7 - 10*alpha < 0, read off with no search
        "c_closed_form_at_level_2": (
            [(1,) + (0,) * 6],
            [(_units(1, 1, 7), _curve_rows((1,), 2, 7)), (_units(2, 5, 7), _curve_rows((2, 3, 4), 7, 7))],
            (),
            "(c) delta(F'_2) + min delta(S'_2/F'_2) >= alpha*k - s",
        ),
        # the E point has an old part: f = 2e
        "e_not_a_unit_vector": ([(1, 0)], [([(1, 1)], [(2, 2)])], (), "E_1 is its block's unit vectors"),
        # a colored point outside every level doubles e1_0
        "point_on_no_level": ([(1, 0, 0)], [_LEVEL_ONE], [(0, 1, 0)], "the levels cover S"),
    }

    @staticmethod
    def _raises(S, lvls, rule):
        with pytest.raises(InvariantError, match=f"^{re.escape(f'ambient_k_plus: {rule} does not hold')}"):
            _tower_k_plus_check(S, lvls)

    @pytest.mark.parametrize("name", sorted(NEGATIVE))
    def test_negative_towers_raise(self, name):
        d0, levels, extra, rule = self.NEGATIVE[name]
        S, lvls = _tower(ALPHA_INV_SQRT2, d0, levels, extra)
        assert not incremental_in_k_plus(S)
        self._raises(S, lvls, rule)

    def test_colored_d0_raises(self):
        S = ColoredStructure(
            Backend(LINEAR, 1), (ge("x", 1), ge("y", 2)), frozenset({"x", "y"}), ALPHA_INV_SQRT2
        )
        levels = [ChainLevel(("x", "y"), ("x", "y"), (), None)]
        assert not incremental_in_k_plus(S)
        self._raises(S, levels, "D_0 has no colored point")

    MISSHAPEN = {
        "d0_reaches_a_fresh_block": (
            [(1, 0, 0), (0, 1, 1)], [([(0, 0, 1)], [(1, 0, 1)])], (), "D_0 is zero from column w_1 on"
        ),
        # f1_0 = d0 + e1_0 + e1_1, on its curve at lam = 1, plus e2_0
        "f_reaches_a_later_block": (
            [(1, 0, 0, 0, 0)], [(_units(2, 2, 5), [(1, 0, 1, 1, 1)]), (_units(4, 1, 5), [])], (),
            "(a) at level 1: each point of copy 1 is zero off B's columns and its block",
        ),
        "plain_f_point": ([(1, 0, 0)], [_LEVEL_ONE], ("f1_0",), "N_1 is colored"),
    }

    @pytest.mark.parametrize("name", sorted(MISSHAPEN))
    def test_misshapen_towers_raise(self, name):
        # in K+, but not of the shape the lemma reads: no verdict is searched
        d0, levels, plain, rule = self.MISSHAPEN[name]
        S, lvls = _tower(ALPHA_INV_SQRT2, d0, levels, plain=plain)
        assert incremental_in_k_plus(S)
        self._raises(S, lvls, rule)

    @pytest.mark.parametrize("how", ["relisted", "listed_twice", "failed", "sampled", "budget"])
    def test_unusable_levels_raise(self, monkeypatch, how):
        # at sqrt(2) - 1, (b) would still hold with a point listed twice
        alpha = Alpha.quadratic(-1, 1, 1, 2)
        S, lvls = _tower(alpha, [(1, 0, 0)], [_LEVEL_ONE])
        assert _tower_k_plus_check(S, lvls).method == "certified"
        # a fresh copy, since the certificate recorded the first one's verdict
        S, lvls = _tower(alpha, [(1, 0, 0)], [_LEVEL_ONE])
        if how == "relisted":
            # a level with no fresh block that lists a point of the level below
            lvls.append(ChainLevel(lvls[-1].d_ids, (), ("f1_0",), None))
            rule = "N_2 lists new points once"
        elif how == "listed_twice":
            lvls[1] = replace(lvls[1], f_ids=("f1_0", "f1_0"))
            rule = "N_1 lists new points once"
        elif how == "failed":
            # f1_0 = d0 + e1_0 - e1_1 reads lam = -1 off its block, so (a)
            # is not read off, though every 2-subset of the level is still a
            # base
            S = _perturbed(S, "f1_0", -2)
            rule = "(a) at level 1: the lambdas of copy 1 are positive"
        elif how == "sampled":
            # (a) is read off the structure, never off a Check, and no Check
            # holds a method other than exhaustive or certified
            with pytest.raises(InvariantError, match="generic_1: unknown method 'sampled'"):
                Check("generic_1", True, method="sampled")
            return
        else:
            def exhausted(*args, **kwargs):
                raise SearchBudgetExceeded("exact search node budget exhausted")

            # (c) is read off the curve at level 1 (j = 1 >= w = 1), and the
            # search runs at a level with j < w alone
            d0, levels, _, _ = self.NEGATIVE["c_searched_at_level_2"]
            S, lvls = _tower(alpha, d0, levels)
            monkeypatch.setattr(construct, "min_relative_delta", exhausted)
            with pytest.raises(
                SearchBudgetExceeded, match="^ambient_k_plus: exact search node budget exhausted$"
            ):
                _tower_k_plus_check(S, lvls)
            return
        assert incremental_in_k_plus(S)
        self._raises(S, lvls, rule)

    def test_chain_certified_without_a_k_plus_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the chain searched its ambient K+")

        monkeypatch.setattr(construct, "in_k_plus", no_search)
        res = minimal_pair_chain(Alpha.quadratic(1, 1, 6, 3), 3, 32)
        assert res.checks[-1] == Check("ambient_k_plus", True, method="certified")
        assert res.structure._k_plus is True


def _union_min(S, prime, old_w, blocks):
    """_free_union_min on profiles built through the per-block helper."""
    profiles = [_block_profile(S, old_w, *blk) for blk in blocks]
    return _free_union_min(S, prime, old_w, blocks, profiles)


def _brute_min(S, prime):
    cands = sorted(S.colored - set(prime))
    best = None
    for r in range(len(cands) + 1):
        for combo in itertools.combinations(cands, r):
            v = delta(S, combo, prime)
            if best is None or compare(v, best, S.alpha) < 0:
                best = v
    return best


def _one_point(alpha, payload=1, colored=False):
    return empty_structure(alpha, ambient=1).extended(
        [GroundElement("b", (F(payload),))], new_colored=["b"] if colored else ()
    )


def _perturbed(S, eid, shift):
    """S with `shift` added to the last coordinate of `eid`'s payload."""
    elements = tuple(
        GroundElement(e.id, e.vec[:-1] + (e.vec[-1] + shift,)) if e.id == eid else e
        for e in S.elements
    )
    return ColoredStructure(S.backend, elements, S.colored, S.alpha)


class TestFreeUnionVerifier:
    def _blocks_structure(self, rng, alpha, n_old, blocks_spec):
        """Old independent part plus moment blocks over a base subset."""
        S = empty_structure(alpha, ambient=n_old)
        elems = []
        colored = []
        for i in range(n_old):
            vec = [F(0)] * n_old
            vec[i] = F(1)
            elems.append(GroundElement(f"o{i}", tuple(vec)))
            if rng.random() < 0.5:
                colored.append(f"o{i}")
        S = S.extended(elems, new_colored=colored)
        base = [f"o{i}" for i in range(rng.randint(1, n_old))]
        return self._add_blocks(S, base, blocks_spec)

    def _add_blocks(self, S, base, blocks_spec):
        old_w = S.backend.ambient_dim
        blocks = []
        lam = 1
        for s, k in blocks_spec:
            start = S.backend.ambient_dim
            S, ids = grow_patch(S, base, s, k, colored=True, lam_start=lam)
            lam += k
            blocks.append((ids, start, s))
        return S, blocks, old_w

    def _rational_old_structure(self, rng, alpha, old_w, blocks_spec):
        """Non-unit rational old payloads: a rank-2 prime o0, o1, a colored
        old candidate o2, and one more old point of random color."""
        def vec():
            while True:
                v = tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(old_w))
                if any(v):
                    return v

        while True:
            elems = [GroundElement(f"o{i}", vec()) for i in range(4)]
            colored = {"o2"} | ({"o3"} if rng.random() < 0.5 else set())
            colored |= {e.id for e in elems[:2] if rng.random() < 0.5}
            S = empty_structure(alpha, ambient=old_w).extended(elems, new_colored=colored)
            if delta(S, ["o0", "o1"]).dim_part == 2:
                break
        base = sorted(rng.sample(["o0", "o1", "o2", "o3"], rng.randint(1, 3)))
        return self._add_blocks(S, base, blocks_spec)

    def test_dp_matches_brute_force(self, rng):
        for trial in range(25):
            alpha = ALL_ALPHAS[trial % 4]
            spec = [(rng.randint(1, 2), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            S, blocks, old_w = self._blocks_structure(rng, alpha, rng.randint(1, 3), spec)
            assert compare(_union_min(S, (), old_w, blocks), _brute_min(S, ()), alpha) == 0

    def test_dp_matches_brute_force_primed(self, rng):
        for trial in range(15):
            alpha = ALL_ALPHAS[trial % 4]
            S, blocks, old_w = self._blocks_structure(
                rng, alpha, 3, [(1, rng.randint(1, 3)), (2, rng.randint(1, 3))]
            )
            prime = ["o0"]
            assert compare(_union_min(S, prime, old_w, blocks), _brute_min(S, prime), alpha) == 0

    def test_dp_matches_brute_force_rational_payloads_rank_two_prime(self, rng):
        # raw residue keys whose rows have an entry their lead does not divide
        # (a Fraction RREF would hold a non-integer there), a rank-2 prime in
        # old width 3-4, and colored old points outside blocks and prime
        indivisible_keys = 0
        for trial in range(16):
            alpha = ALL_ALPHAS[trial % 4]
            spec = [(rng.randint(1, 2), rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
            S, blocks, old_w = self._rational_old_structure(rng, alpha, 3 + trial % 2, spec)
            prime = ["o0", "o1"]
            old_cands = S.colored - set(prime) - {i for ids, _, _ in blocks for i in ids}
            assert "o2" in old_cands
            raw = _block_profile(S, old_w, old_cands, old_w, 0)
            assert all(key == span_key(key, old_w) for key, _ in raw)  # one key per span
            indivisible_keys += any(
                x % next(y for y in row if y) for key, _ in raw for row in key for x in row
            )
            for p in ([], prime, prime + ["o3"]):
                assert compare(_union_min(S, p, old_w, blocks), _brute_min(S, p), alpha) == 0
        assert indivisible_keys > 0

    def test_dp_matches_branch_and_bound_medium(self, rng):
        # two independent exact engines must agree at medium scale
        for trial in range(8):
            alpha = ALL_ALPHAS[trial % 4]
            spec = [(rng.randint(1, 3), rng.randint(2, 5)) for _ in range(rng.randint(2, 4))]
            S, blocks, old_w = self._blocks_structure(rng, alpha, rng.randint(2, 4), spec)
            want, _ = min_relative_delta(S, ())
            assert compare(_union_min(S, (), old_w, blocks), want, alpha) == 0

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_block_profile_steps_once_per_growing_subset(self, monkeypatch, k):
        # the walk carries pending rows: no reducer clone or add, and one
        # elimination step per subset with points still to come whose last
        # row grew the span, so at most 2^k - 1
        S, blocks, old_w = self._add_blocks(_one_point(ALPHA_TWO_THIRDS), ["b"], [(2, k)])
        calls = dict.fromkeys(["add", "clone", "eliminate"], 0)

        def counting(name, original):
            def wrapped(*args):
                calls[name] += 1
                return original(*args)

            return wrapped

        monkeypatch.setattr(SpanReducer, "add", counting("add", SpanReducer.add))
        monkeypatch.setattr(SpanReducer, "clone", counting("clone", SpanReducer.clone))
        monkeypatch.setattr(pregeom, "eliminate", counting("eliminate", pregeom.eliminate))
        _block_profile(S, old_w, *blocks[0])
        rows = [S.introw(i) for i in sorted(blocks[0][0])]
        rank = lambda c: rank_int_matrix([rows[j] for j in c], len(rows[0]))
        growing = sum(
            rank(c) > rank(c[:-1])
            for size in range(1, k)
            for c in itertools.combinations(range(k - 1), size)
        )
        assert calls == {"add": 0, "clone": 0, "eliminate": growing}
        assert growing <= 2**k - 1

    @pytest.mark.parametrize("colored_base", [False, True])
    def test_one_profile_per_copy(self, monkeypatch, colored_base):
        calls = []
        original = construct._block_profile

        def recording(S2, old_width, ids, start, length):
            calls.append((tuple(sorted(ids)), start, length))
            return original(S2, old_width, ids, start, length)

        monkeypatch.setattr(construct, "_block_profile", recording)
        # over two base points with k - s = 1 < 2 the fresh-block lemma
        # declines, so the DP decides both union checks
        S = plain_points(ALPHA_INV_SQRT2, [(1, 0), (0, 1)])
        if colored_base:
            S = ColoredStructure(S.backend, S.elements, S.id_set, S.alpha)
        res = free_power_patch([], ["b1", "b2"], F(1, 2), 2, S)
        assert (res.pair.s, res.pair.k, len(res.copies)) == (2, 3, 4 if colored_base else 16)
        certified = {"per_copy_gap", "power_gap", "small_sets_closed"}
        assert all(c.passed and c.method == ("certified" if c.name in certified else "exhaustive")
                   for c in res.checks)
        fresh = [ids for ids, _, length in calls if length]
        assert sorted(fresh) == sorted(tuple(sorted(c)) for c in res.copies)
        old_part = [(ids, start) for ids, start, length in calls if not length]
        # the colored base points are the old part of both minimisations
        assert old_part == ([(("b1", "b2"), 2)] * 2 if colored_base else [])


def _unit_rows(width, *cols):
    """Sum of the unit vectors on `cols` (each once per mention)."""
    row = [0] * width
    for c in cols:
        row[c] += 1
    return row


class TestFreshBlockLemma:
    """`_fresh_block_union` against the free-union DP on walked tables and a
    brute-force `SubsetTable`, on unions of at most 12 points: bases of rank
    0 to 2 with colored points, S larger than B, 1 to 3 `grow_patch` copies
    with k - s >= r (the lemma applies) or k - s < r (it declines).  Three
    hand-built unions each break one hypothesis, and there the lemma's
    formula would give the wrong verdict: B outside the copies' span, the
    interior condition, and a point of S - B on a copy's block; off the
    moment curve, each is refused by `_on_curve` naming the rule it breaks.
    On the curve, a copy past the interior condition makes the lemma
    decline."""

    ALPHAS = [ALPHA_HALF, ALPHA_TWO_THIRDS, ALPHA_INV_SQRT2, Alpha.rational(3, 5)]

    @staticmethod
    def _pairs(alpha):
        """(s, k) with s - alpha*(k - 1) >= 0 > s - alpha*k and k <= 6."""
        return [
            (s, k) for s in (1, 2, 3) for k in range(s + 1, 7)
            if PreDimValue(s, k - 1).sign(alpha) >= 0 > PreDimValue(s, k).sign(alpha)
        ]

    @staticmethod
    def _random_union(rng, alpha, r, s, k):
        """B of rank r and one or two more points of S on old columns of
        width r + 1, colored at random, then 1-3 copies (at most 12 points)."""
        width = r + 1
        while True:
            base = [[rng.randint(-2, 2) for _ in range(width)] for _ in range(r)]
            if rank_int_matrix(base, width) == r:
                break
        extra, n_extra = [], rng.randint(1, 2)
        while len(extra) < n_extra:
            row = [rng.randint(-2, 2) for _ in range(width)]
            extra += [row] if any(row) else []
        rows = {f"b{i}": v for i, v in enumerate(base)} | {f"x{i}": v for i, v in enumerate(extra)}
        colored = [i for i in rows if rng.random() < 0.5]
        S = ColoredStructure(
            Backend(LINEAR, width), tuple(ge(i, *v) for i, v in rows.items()), frozenset(colored), alpha
        )
        b = [f"b{i}" for i in range(r)]
        S2, copies = S, []
        for c in range(rng.randint(1, min(3, (12 - len(S)) // k))):
            S2, ids = grow_patch(S2, b, s, k, colored=True, lam_start=1 + c * k)
            copies.append(ids)
        a = [i for i in b if rng.random() < 0.4]
        return S2, a, b, copies

    @staticmethod
    def _verdicts(S2, a, b, copies, s):
        """(lemma's verdicts or None, DP's or None, brute force's), with the
        lemma's gaps checked against `delta`."""
        S = S2.restrict(S2.id_set.difference(*copies))
        rank = _on_curve("union", S2, b, construct._fresh_blocks(S2, copies, s), others=S.id_set)
        assert rank == len(b)
        lemma = _fresh_block_union(S, S2, a, b, copies, ApproximationPair(s, len(copies[0])), rank)
        # each copy's delta(N_c/B) as _patch_union reads it off the curve
        read = [PreDimValue(min(len(c), s), len(S2.colored.intersection(c))) for c in copies]
        assert read == [delta(S2, c, b) for c in copies]
        star = set(b).union(*copies)
        t = SubsetTable(S2)
        brute = {
            "ambient_k_plus": all(t.delta_sign(m) >= 0 for m in range(1 << t.n)),
            "anchor_closed": all(t.delta_sign(m, t.mask_of(a)) >= 0 for m in submasks(t.mask_of(star))),
        }
        old_w = S2.backend.ambient_dim - len(copies) * s
        blocks = construct._fresh_blocks(S2, copies, s)
        try:
            tables = [_block_profile(S2, old_w, *blk) for blk in blocks]
            lows = {
                "ambient_k_plus": _free_union_min(S2, (), old_w, blocks, tables),
                "anchor_closed": _free_union_min(S2.restrict(star), a, old_w, blocks, tables),
            }
            dp = {name: low.sign(S2.alpha) >= 0 for name, low in lows.items()}
        except SearchBudgetExceeded:
            dp = None
        return lemma, dp, brute

    def test_random_unions_agree(self, rng):
        seen = set()
        for trial in range(72):
            alpha = self.ALPHAS[trial % 4]
            r = trial // 4 % 3
            s, k = rng.choice(self._pairs(alpha))
            S2, a, b, copies = self._random_union(rng, alpha, r, s, k)
            lemma, dp, brute = self._verdicts(S2, a, b, copies, s)
            assert dp == brute
            assert (lemma is not None) == (k - s >= r)
            if lemma is not None:
                assert lemma == brute
                seen |= {("rank", r), ("copies", len(copies))}
                seen |= {(name, ok) for name, ok in lemma.items()}
                seen |= {("colored base", bool(S2.colored & set(b)))}
            else:
                seen.add("k - s < r")
        want = {("rank", r) for r in range(3)} | {("copies", p) for p in (1, 2, 3)}
        want |= {(name, ok) for name in ("ambient_k_plus", "anchor_closed") for ok in (True, False)}
        assert seen >= want | {("colored base", True), "k - s < r"}

    @staticmethod
    def _hand_built(case):
        """(rows, colored ids, B, copies) of a union at alpha = 2/3 with s = 1
        breaking one hypothesis; the copies own the last columns in order."""
        if case == "B outside the span":
            # four copies {b1 + e, b1 + 2e} share the residue line b1: 5 - 8*(2/3) < 0,
            # while delta(B) + 4*(1 - 2*(2/3)) = 2/3
            width = 6
            rows = {"b1": _unit_rows(width, 0), "b2": _unit_rows(width, 1)}
            copies = [(f"d{c}a", f"d{c}b") for c in range(4)]
            for c, (u, v) in enumerate(copies):
                rows[u], rows[v] = _unit_rows(width, 0, 2 + c), _unit_rows(width, 0, 2 + c, 2 + c)
            return rows, [i for copy in copies for i in copy], ["b1", "b2"], copies
        if case == "interior":
            # {e, 2e} has delta 1 - 2*(2/3) < 0, while delta(B) + (1 - 3*(2/3)) = 0
            rows = {"b1": [1, 0], "d1": [0, 1], "d2": [0, 2], "d3": [1, 3]}
            return rows, ["d1", "d2", "d3"], ["b1"], [("d1", "d2", "d3")]
        # x in S - B on the copy's column: B u x u copy has 2 - 4*(2/3) < 0,
        # while delta(B) + min_relative_delta(S, B) + (1 - 2*(2/3)) = 0
        rows = {"b1": [1, 0], "x": [0, 1], "d1": [1, 1], "d2": [1, 2]}
        return rows, ["b1", "x", "d1", "d2"], ["b1"], [("d1", "d2")]

    BROKEN = {
        "B outside the span": "each point of copy 1 is on its moment curve",
        "interior": "the lambdas and unit points of copy 1 are distinct",
        "S - B on a block": "B is zero on the fresh blocks",
    }

    @pytest.mark.parametrize("case", sorted(BROKEN))
    def test_broken_hypotheses_raise(self, case):
        rows, colored, b, copies = self._hand_built(case)
        S2 = ColoredStructure(
            Backend(LINEAR, len(rows["b1"])), tuple(ge(i, *v) for i, v in rows.items()),
            frozenset(colored), ALPHA_TWO_THIRDS,
        )
        S = S2.restrict(S2.id_set.difference(*copies))
        with pytest.raises(InvariantError, match=f"^union: {re.escape(self.BROKEN[case])} does not hold"):
            _on_curve("union", S2, b, construct._fresh_blocks(S2, copies, 1), others=S.id_set)
        # the lemma's formula, were it applied, would pass a union outside K+
        t = SubsetTable(S2)
        assert not all(t.delta_sign(m) >= 0 for m in range(1 << t.n))
        p, k = len(copies), len(copies[0])
        mu, _ = min_relative_delta(S, b)
        assert (delta(S, b) + mu + PreDimValue(p, p * k)).sign(S2.alpha) >= 0

    def test_past_the_interior_condition_declines(self):
        # one copy of 3 points with s = 1 at 2/3: 1 - (2/3)*2 < 0, so (ii) fails
        S = _one_point(ALPHA_TWO_THIRDS)
        S2, ids = grow_patch(S, ["b"], 1, 3, colored=True)
        rank = _on_curve("union", S2, ["b"], construct._fresh_blocks(S2, [ids], 1), others=S.id_set)
        assert _fresh_block_union(S, S2, [], {"b"}, [ids], ApproximationPair(1, 3), rank) is None


def _read_off(S, b_ids, new_ids, s: int, old_w: int, table):
    """Verdicts (generic, interior, minimal pair) of a patch N = `new_ids`
    over B = `b_ids`, read off N's block table (`_block_profile` with fresh
    block [old_w, old_w + s)), or None where the read-off does not apply: a
    point of N plain, B nonzero past the old columns, or k = |N| past
    BLOCK_PROFILE_LIMIT.

    For C within N with table key (K, f), span(C u B) maps onto the fresh
    block with rank f and kernel K + span(B), so dim(C/B) = f + d(K) with
    d(K) = dim((K + span B)/span B), one reduction per key.  So each entry
    gives j = dim(C/B), shared by the Cs of its key, and the size of the
    largest; C is colored, so delta(C/B) = j - alpha*|C|, least at that
    size.  R = dim(N/B) is the largest j.

    Lemma.  (i) Every s-subset of N is a base over B iff k < s or no entry
    has j < s and size > j.  (ii) delta(C/B) >= 0 for every nonempty proper
    C iff j - alpha*size >= 0 for every entry with j < R, and
    R - alpha*(k - 1) >= 0.  (iii) (B, B u N) is a minimal pair iff (ii)
    holds and R - alpha*k < 0.

    Proof.  (i) An s-subset of rank below s has j < s = |C|, so its entry
    has size > j.  Conversely, a C with j < s and |C| > j is dependent over
    B, so holds a circuit over B of at most j + 1 <= s points; when k >= s,
    an s-subset containing it has rank at most s - 1.  (ii) Every C with
    j < R is proper or empty (delta 0), and an entry's size gives the least
    delta of its key, so the entries with j < R decide them.  A proper C with
    j = R has delta(C/B) >= R - alpha*(k - 1).  That bound is reached when
    R < k: N has a circuit over B, and dropping one of its points leaves
    k - 1 points of rank R; for k = 1 or R = k it holds anyway, alpha lying
    in (0, 1].  (iii) is (ii) plus delta(N/B) < 0.
    """
    alpha, k = S.alpha, len(new_ids)
    base_rows = [S.introw(i) for i in sorted(b_ids)]
    if k > BLOCK_PROFILE_LIMIT or any(any(r[old_w:]) for r in base_rows):
        return None
    if not S.colored.issuperset(new_ids):
        return None
    red = SpanReducer(old_w)
    for row in base_rows:
        red.add(row[:old_w])
    modulo = lambda key: span_key([red.residual(r) for r in key], old_w)
    entries = {(f + len(modulo(key)), size) for (key, f), size in table.items()}
    rank = max(j for j, _ in entries)
    generic = k < s or all(size <= j for j, size in entries if j < s)
    interior = PreDimValue(rank, k - 1).sign(alpha) >= 0 and all(
        PreDimValue(j, size).sign(alpha) >= 0 for j, size in entries if j < rank
    )
    return generic, interior, interior and PreDimValue(rank, k).sign(alpha) < 0


def _table_checks(t, b_ids, new_ids, s: int) -> tuple:
    """(generic, interior, minimal pair) of the patch `new_ids` over B =
    `b_ids` by the brute-force `SubsetTable` t: every s-subset is a base over
    B; delta(C/B) >= 0 for every nonempty proper C; and that with
    delta(D/B) < 0."""
    over, pool = t.mask_of(b_ids), t.mask_of(new_ids)
    subs = [m for m in submasks(pool) if m]
    generic = all(t.delta_pair(m, over)[0] == s for m in subs if bin(m).count("1") == s)
    interior = all(t.delta_sign(m, over) >= 0 for m in subs if m != pool)
    return generic, interior, interior and t.delta_sign(pool, over) < 0


def _certify(name, *hypotheses):
    """`construct._certified`'s Check, or None where it raises naming `name`."""
    try:
        return construct._certified(name, *hypotheses)
    except InvariantError as e:
        assert str(e).startswith(f"{name}: ")
        return None


class TestPatchReadOff:
    """The block-table read-off of a patch's genericity and interior or
    minimal-pair checks (`_read_off`, lemma (i)-(iii)), kept here as an
    oracle: against the brute-force sweeps of `SubsetTable`."""

    @staticmethod
    def _random_patch(rng, alpha):
        """k colored points on old columns [0, old_w) and fresh columns
        [old_w, old_w + s) over a base of rank below old_w, zero on the fresh
        block.  Entries come from a small set, and some points are twice an
        earlier one or a base point, so dependencies are common."""
        old_w, s, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 7)
        rank = rng.randint(0, old_w - 1)
        while True:
            base = [tuple(rng.randint(-2, 2) for _ in range(old_w)) for _ in range(rank)]
            if rank_int_matrix(base, old_w) == rank:
                break
        if base and rng.random() < 0.5:
            base.append(tuple(2 * x for x in base[0]))
        new = []
        while len(new) < k:
            row = tuple(rng.choice((0, 0, 1, 1, 2, -1)) for _ in range(old_w + s))
            if new and rng.random() < 0.2:
                row = tuple(2 * x for x in rng.choice(new))
            elif base and rng.random() < 0.1:
                row = rng.choice(base) + (0,) * s
            new += [row] if any(row) else []
        b_elems = [GroundElement(f"b{i}", tuple(map(F, v + (0,) * s))) for i, v in enumerate(base)]
        d_elems = [GroundElement(f"d{i}", tuple(map(F, v))) for i, v in enumerate(new)]
        b_ids = [e.id for e in b_elems]
        new_ids = tuple(e.id for e in d_elems)
        colored_ids = [*new_ids, *(i for i in b_ids if rng.random() < 0.5)]
        S = empty_structure(alpha, ambient=old_w + s).extended(b_elems + d_elems, new_colored=colored_ids)
        return S, b_ids, new_ids, s, old_w

    def test_read_off_matches_the_sweeps(self, rng):
        seen = set()
        for trial in range(320):
            alpha = ALL_ALPHAS[trial % 4]
            S, b_ids, new_ids, s, old_w = self._random_patch(rng, alpha)
            table = _block_profile(S, old_w, new_ids, old_w, s)
            generic, interior, minimal = _table_checks(SubsetTable(S), b_ids, new_ids, s)
            assert _read_off(S, b_ids, new_ids, s, old_w, table) == (generic, interior, minimal)
            assert minimal == is_minimal_pair(b_ids, set(b_ids) | set(new_ids), S)
            seen |= {("generic", generic), ("interior", interior)}
            seen |= {("minimal", minimal), ("k < s", len(new_ids) < s)}
        checks = ("generic", "interior", "minimal")
        assert seen >= {(name, ok) for name in checks for ok in (True, False)} | {("k < s", True)}

    @pytest.mark.parametrize(
        "engine, walks",
        [
            (lambda: rational_minimal_extension([], ["b"], 1, _one_point(ALPHA_TWO_THIRDS)), 0),
            (lambda: transcendental_patch([], ["b"], F(1, 10), _one_point(ALPHA_INV_SQRT2)), 0),
            (lambda: free_power_patch(
                [], ["b1", "b2"], F(1, 2), 2, plain_points(ALPHA_INV_SQRT2, [(1, 0), (0, 1)])
            ), 16),
        ],
        ids=["rational_minimal_extension", "transcendental_patch", "two_point_base"],
    )
    def test_one_walk_over_the_new_points(self, monkeypatch, engine, walks):
        # a moment patch over one point is certified by the fresh-block lemma
        # and no copy is walked; a power patch over two points (k - s = 1 <
        # 2) has each of its 16 copies walked once for the DP
        original, walked = pregeom.walk, []

        def counting(rows, *args):
            walked.append(len(rows))
            return original(rows, *args)

        for module in ("closure", "colored", "construct"):
            monkeypatch.setattr(sys.modules[f"bicolor.{module}"], "walk", counting)
        res = engine()
        certified = {"generic_position", "interior_condition", "minimal_pair", "small_sets_closed"}
        certified |= {"delta_gap", "delta_exact", "per_copy_gap", "power_gap"}
        if not walks:
            certified |= {"anchor_closed", "ambient_k_plus"}
        assert all(c.passed and c.method == ("certified" if c.name in certified else "exhaustive")
                   for c in res.checks)
        assert res.pair.k > 1
        assert walked.count(res.pair.k) == walks

    def test_thirteen_point_patch_interior_is_certified(self):
        # the certificate passes with no sweep, and the table and the
        # read-off agree
        S = _one_point(Alpha.quadratic(0, 1, 6, 2))  # sqrt(2)/6
        res = transcendental_patch([], ["b"], F(1, 10), S)
        assert (res.pair.s, res.pair.k) == (3, 13)
        interior = next(c for c in res.checks if c.name == "interior_condition")
        assert interior == Check("interior_condition", True, method="certified")
        S2, s, new_ids = res.structure, res.pair.s, res.new_ids
        assert _table_checks(SubsetTable(S2), ["b"], new_ids, s)[1]
        table = _block_profile(S2, 1, new_ids, 1, s)
        assert _read_off(S2, ["b"], new_ids, s, 1, table)[1]

    def test_plain_new_point_keeps_the_certificate(self):
        # the curve lemma does not read colors: a plain point only
        # raises delta(C/B), so genericity and the interior stay certified,
        # while the read-off does not apply
        S, new_ids = grow_patch(_one_point(ALPHA_TWO_THIRDS), ["b"], 1, 2, colored=True)
        S = ColoredStructure(S.backend, S.elements, S.colored - {new_ids[0]}, S.alpha)
        assert _read_off(S, ["b"], new_ids, 1, 1, _block_profile(S, 1, new_ids, 1, 1)) is None
        _on_curve("generic_position", S, ["b"], [(new_ids, 1, 1)])
        tight = construct._interior(1, 2, S.alpha)
        assert _certify("generic_position") == Check("generic_position", True, method="certified")
        interior = _certify("interior_condition", tight)
        assert interior == Check("interior_condition", True, method="certified")
        # with both points colored it would be a minimal pair: 1 - 2*(2/3) < 0
        assert _table_checks(SubsetTable(S), ["b"], new_ids, 1) == (True, True, False)

    def test_base_on_the_fresh_block_runs_the_sweeps(self):
        # b = x, so dim(x/b) = 0, while x's fresh rank alone would say 1;
        # the table's sweeps find x no base, and no certificate applies
        row = (F(1), F(1))
        S = empty_structure(ALPHA_TWO_THIRDS, ambient=2).extended(
            [GroundElement("b", row), GroundElement("x", row)], new_colored=["x"]
        )
        assert _read_off(S, ["b"], ("x",), 1, 1, _block_profile(S, 1, ["x"], 1, 1)) is None
        assert _table_checks(SubsetTable(S), ["b"], ("x",), 1) == (False, True, True)
        with pytest.raises(InvariantError, match="^generic_position: B is zero on the fresh blocks does not hold"):
            _on_curve("generic_position", S, ["b"], [(("x",), 1, 1)])

    def test_no_table_past_the_limit(self):
        # past BLOCK_PROFILE_LIMIT points no block is walked, on the moment
        # curve or off it; the checks are certified by the moment curve at
        # any size
        k = BLOCK_PROFILE_LIMIT + 1
        S, new_ids = grow_patch(_one_point(ALPHA_TWO_THIRDS), ["b"], 10, k, colored=True)
        for T in (S, _perturbed(S, new_ids[-1], -1)):
            with pytest.raises(SearchBudgetExceeded, match=f"block of {k} points"):
                _block_profile(T, 1, new_ids, 1, 10)
        _on_curve("generic_position", S, ["b"], [(new_ids, 1, 10)])
        tight = construct._interior(10, k, S.alpha)
        assert _certify("generic_position") == Check("generic_position", True, method="certified")
        interior = _certify("interior_condition", tight)
        assert interior == Check("interior_condition", True, method="certified")
        # delta(D/B) = 10 - (2/3)*15 = 0, so no minimal pair
        below = delta(S, ["b", *new_ids], ["b"]).sign(S.alpha) < 0, "delta(D/B) < 0"
        with pytest.raises(InvariantError, match=r"^minimal_pair: delta\(D/B\) < 0 does not hold"):
            construct._certified("minimal_pair", tight, below)


class TestCertifiedSubsetChecks:
    """Every subset check's certificate against a brute-force `SubsetTable`,
    on chains of at most 14 points and on `grow_patch` patches of at most 12
    points over bases of rank 0, 1 and 2: a check is certified exactly when
    the moment curve (`_on_curve`) and its own exact inequality hold, and
    the table then confirms it.  Where a perturbed curve fails, `_on_curve`
    raises, naming the first check."""

    BASES = {
        0: lambda alpha: (plain_points(alpha, [(1,)]), []),
        1: lambda alpha: (_one_point(alpha, 2, colored=True), ["b"]),
        2: lambda alpha: (plain_points(alpha, [(1, 0), (1, 2), (2, 2)]), ["b1", "b2", "b3"]),
    }

    @staticmethod
    def _table_passes(t, b_ids, pool, sizes, violates) -> bool:
        """No C within `pool` with |C| in `sizes` has a delta(C/B) that
        `violates`, by the brute-force table."""
        over = t.mask_of(b_ids)
        return not any(
            sub and bin(sub).count("1") in sizes and violates(PreDimValue(*t.delta_pair(sub, over)))
            for sub in submasks(t.mask_of(pool))
        )

    @staticmethod
    def _patch_checks_agree(t, b_ids, ids, s) -> dict | None:
        """Genericity, interior and minimal pair of the patch `ids` over B,
        whose s fresh columns are the last: per check, (certified?, the
        table's verdict); None where `_on_curve` raises, naming the first
        check.  delta(D/B) < 0 is read off the curve, as the engines read
        it, and agrees with the table."""
        S, k = t.S, len(ids)
        try:
            _on_curve("generic_position", S, b_ids, construct._fresh_blocks(S, [ids], s))
        except InvariantError as e:
            assert str(e).startswith("generic_position: ")
            return None
        tight = construct._interior(s, k, S.alpha)
        below = PreDimValue(min(k, s), len(S.colored.intersection(ids))).sign(S.alpha) < 0
        assert below == (t.delta_sign(t.mask_of(ids), t.mask_of(b_ids)) < 0)
        got = {
            "generic": _certify("generic_position"),
            "interior": _certify("interior_condition", tight),
            "minimal": _certify("minimal_pair", tight, (below, "delta(D/B) < 0")),
        }
        table = dict(zip(got, _table_checks(t, b_ids, ids, s)))
        assert all(c is None or c.method == "certified" and table[name] for name, c in got.items())
        assert [c is not None for c in got.values()] == [True, tight[0], tight[0] and below]
        return {name: (c is not None, table[name]) for name, c in got.items()}

    @pytest.mark.parametrize("alpha", QUADRATIC_ALPHAS[:4], ids=lambda a: a.render())
    def test_chain_levels(self, alpha):
        # each level is checked on D_l as it was built: its columns end with
        # its own fresh block
        depth = max(d for d in range(4) if 1 + sum(p.k for p in chain_pairs(alpha, d)) <= 14)
        res = minimal_pair_chain(alpha, depth, 32)
        S, width = res.structure, 1
        for lvl, (lo, hi) in enumerate(zip(res.levels, res.levels[1:]), start=1):
            new, s = hi.e_ids + hi.f_ids, len(hi.e_ids)
            width += s
            elements = tuple(GroundElement(i, S.element(i).vec[:width]) for i in hi.d_ids)
            level = ColoredStructure(Backend(LINEAR, width), elements, S.colored & set(hi.d_ids), alpha)
            got = self._patch_checks_agree(SubsetTable(level), lo.d_ids, new, s)
            assert got == dict.fromkeys(("generic", "interior", "minimal"), (True, True))
            for name in (f"generic_{lvl}", f"minimal_pair_{lvl}"):
                assert Check(name, True, method="certified") in res.checks

    def _patch(self, rng, rank):
        """A structure with `copies` moment patches of k points over B of the
        given rank, at most 12 points in all, mostly colored."""
        alpha = SEARCH_ALPHAS[rng.randrange(4)]
        S, b_ids = self.BASES[rank](alpha)
        s, ncopies = rng.randint(1, 3), rng.choice([1, 1, 2])
        k = rng.randint(1, (12 - len(S)) // ncopies)
        colored, copies = rng.random() < 0.8, []
        for c in range(ncopies):
            S, ids = grow_patch(S, b_ids, s, k, colored=colored, lam_start=1 + c * k)
            copies.append(ids)
        return S, b_ids, s, k, copies

    def test_grown_patches(self, rng):
        seen = set()
        for trial in range(150):
            S, b_ids, s, k, copies = self._patch(rng, trial % 3)
            t = SubsetTable(S)
            got = self._patch_checks_agree(t, b_ids, copies[-1], s)
            seen |= {(name, *verdicts) for name, verdicts in got.items()}
            if s >= k:
                continue
            _on_curve("small_sets_closed", S, b_ids, construct._fresh_blocks(S, copies, s))
            tight = construct._interior(s, k, S.alpha)
            new_ids = [i for copy in copies for i in copy]
            for n in range(len(new_ids) + 2):
                check = _certify("small_sets_closed", tight, (n <= k, "n <= k"))
                sizes = range(min(n, len(new_ids) + 1))
                table = self._table_passes(t, b_ids, new_ids, sizes, lambda d: d.sign(S.alpha) < 0)
                assert check is None or table
                assert (check is not None) == (n <= k and tight[0])
                seen.add(("small", check is not None, table))
        assert seen >= {
            ("generic", True, True), ("interior", True, True), ("interior", False, False),
            ("minimal", True, True), ("minimal", False, False),
            ("small", True, True), ("small", False, False),
        }

    def test_perturbed_shapes_raise(self, rng):
        # a repeated lambda, a base point on the fresh block, or one entry
        # off the curve: `_on_curve` raises, naming the first check, except
        # where the last entry moves a point along its curve (B of rank 0, s
        # <= 2: c*(1, lam) to c*(1, lam + 1/c)), and there the certified
        # checks agree with the table
        declined = set()
        for trial in range(120):
            S, b_ids, s, k, copies = self._patch(rng, trial % 3)
            ids = copies[-1]
            case = ["repeated lam", "base on the block", "off the curve"][trial % 3]
            if case == "repeated lam" and s >= 2 and k >= 2:
                last = S.element(ids[-1])
                twice = GroundElement(last.id, tuple(2 * x for x in S.element(ids[0]).vec))
                S = ColoredStructure(
                    S.backend, tuple(twice if e.id == last.id else e for e in S.elements), S.colored, S.alpha
                )
            elif case == "base on the block" and b_ids:
                S = _perturbed(S, b_ids[-1], 1)
            else:
                case = "off the curve"
                S = _perturbed(S, ids[-1], 1)
            t = SubsetTable(S)
            got = self._patch_checks_agree(t, b_ids, ids, s)
            assert got is None or case == "off the curve" and not b_ids and s <= 2
            declined.add((case, got is None, _table_checks(t, b_ids, ids, s)[0]))
        assert declined >= {
            ("repeated lam", True, False), ("base on the block", True, True), ("off the curve", True, True),
        }


_BASES = {
    "one": lambda alpha: _one_point(alpha),
    "colored": lambda alpha: _one_point(alpha, 2, colored=True),
    "two": lambda alpha: plain_points(alpha, [(1, 0), (0, 1)]),
}
_BASE_IDS = {"one": ["b"], "colored": ["b"], "two": ["b1", "b2"]}
_GRID = {
    **{
        f"chain-{alpha.render()}-{depth}": lambda alpha=alpha, depth=depth: minimal_pair_chain(alpha, depth, 64)
        for alpha in QUADRATIC_ALPHAS[:5] for depth in (1, 2, 3)
    },
    **{
        f"patch-{base}-{eps}": lambda base=base, eps=eps: transcendental_patch(
            [], _BASE_IDS[base], eps, _BASES[base](ALPHA_INV_SQRT2)
        )
        for base in ("one", "colored", "two") for eps in (F(1, 4), F(1, 10))
    },
    **{
        f"power-{base}-{n}": lambda base=base, n=n: free_power_patch(
            [], _BASE_IDS[base], F(1, 2), n, _BASES[base](ALPHA_INV_SQRT2)
        )
        for base in ("one", "colored", "two") for n in (1, 2)
    },
    **{
        f"{engine.__name__}-{base}-{alpha.render()}-{t}": (
            lambda engine=engine, base=base, alpha=alpha, t=t: engine([], _BASE_IDS[base], t, _BASES[base](alpha))
        )
        for engine in (rational_minimal_extension, rational_zero_extension)
        for base in ("one", "two")
        for alpha in (ALPHA_TWO_THIRDS, ALPHA_HALF, Alpha.rational(3, 5), Alpha.rational(3, 4))
        for t in (0, 1)
    },
    "basis": lambda: generic_basis_extension(
        [], ["b1", "b2"], 3, plain_points(ALPHA_HALF, [(1, 0, 0), (0, 1, 0)])
    ),
}


class TestEngineSubsetChecks:
    """Every engine over a small grid (chains to depth 3; patches and power
    patches over one plain, one colored and two plain points; both rational
    engines at t <= 1 over one and two points; a basis extension) ends every
    subset check and every value check read off the curve `certified`,
    `construct`'s walk runs only inside
    `_block_profile`, and no search runs on a structure as wide as the
    result.  A build whose points repeat a lambda, or whose pair
    breaks one of a check's own inequalities, raises InvariantError naming
    the check and what failed."""

    SUBSET_CHECK = re.compile(
        r"generic_(position|\d+)|interior_condition|minimal_pair(_\d+)?|small_sets_closed|all_bases"
    )
    VALUE_CHECKS = {"delta_gap", "per_copy_gap", "delta_exact", "power_gap", "zero_gap"}

    @pytest.mark.parametrize("name", sorted(_GRID))
    def test_every_subset_check_certified(self, monkeypatch, name):
        # a lemma or the DP decides every union and chain here, so searches
        # run on the input and on a level's S'_l alone
        callers, original = [], construct.walk

        def recording(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return original(*args)

        monkeypatch.setattr(construct, "walk", recording)
        spied = self._spy_searches(monkeypatch)
        res = _GRID[name]()
        subset = [c for c in res.checks if self.SUBSET_CHECK.fullmatch(c.name)]
        assert subset and all(c == Check(c.name, True, method="certified") for c in subset)
        assert all(c.method == "certified" for c in res.checks if c.name in self.VALUE_CHECKS)
        assert all(c.passed for c in res.checks)
        assert set(callers) <= {"_block_profile"}
        searched, built = spied()
        assert built == res.structure.backend.ambient_dim
        # a chain whose levels' F points span the level below reads (c) off
        # the curve and searches nothing
        assert searched or name == "basis" or name.startswith("chain")
        assert all(width < built for width in searched)

    @staticmethod
    def _spy_searches(monkeypatch):
        """Record the width of every structure that construct's in_k_plus,
        is_closed and min_relative_delta are called on.  Returns a reader of
        (those widths, the built width): the built width is the widest
        structure `grow_patch` returned, the result's, as every patch copy
        and chain level widens it, while the caller's input S and a chain
        level's S'_l are narrower."""
        searched, grown = [], [0]
        for name in ("in_k_plus", "is_closed", "min_relative_delta"):
            def spy(*args, _search=getattr(construct, name), **kwargs):
                S = next(x for x in args if isinstance(x, ColoredStructure))
                searched.append(S.backend.ambient_dim)
                return _search(*args, **kwargs)

            monkeypatch.setattr(construct, name, spy)
        grow = construct.grow_patch

        def growing(*args, **kwargs):
            S2, ids = grow(*args, **kwargs)
            grown[0] = max(grown[0], S2.backend.ambient_dim)
            return S2, ids

        monkeypatch.setattr(construct, "grow_patch", growing)
        return lambda: (searched, grown[0])

    @staticmethod
    def _refuse(*args, **kwargs):
        raise SearchBudgetExceeded("forced refusal")

    def test_dp_refusal_falls_to_the_search(self, monkeypatch):
        # a patch over two points at 1/4 is past the fresh-block lemma; where
        # the DP cannot decide, the budgeted searches of the union do, once
        # each, and agree with the DP
        expected = _GRID["patch-two-1/4"]()
        monkeypatch.setattr(construct, "_free_union_min", self._refuse)
        spied = self._spy_searches(monkeypatch)
        res = _GRID["patch-two-1/4"]()
        searched, built = spied()
        assert [w for w in searched if w == built] == [built, built]
        assert res.checks == expected.checks
        assert [c.method for c in res.checks if c.name in ("anchor_closed", "ambient_k_plus")] == ["exhaustive"] * 2
        assert workbench.dumps(res.structure) == workbench.dumps(expected.structure)

    def test_undecided_tower_raises_without_searching_it(self, monkeypatch):
        # condition (c)'s search on S'_3 (j = 5 < w = 10) overruns: the
        # chain itself is never searched in its place
        monkeypatch.setattr(construct, "min_relative_delta", self._refuse)
        spied = self._spy_searches(monkeypatch)
        with pytest.raises(SearchBudgetExceeded, match="^ambient_k_plus: forced refusal$"):
            _GRID["chain-(0+1*sqrt(2))/2-3"]()
        searched, built = spied()
        assert built and all(width < built for width in searched)

    @pytest.mark.parametrize("build, check", [
        (lambda: transcendental_patch([], ["b"], F(1, 3), _one_point(ALPHA_INV_SQRT2)), "delta_gap"),
        (lambda: rational_minimal_extension([], ["b"], 1, _one_point(Alpha.rational(3, 4))), "delta_exact"),
        (lambda: rational_zero_extension([], ["b"], 1, _one_point(Alpha.rational(3, 4))), "per_copy_gap"),
        (lambda: free_power_patch([], ["b"], F(1, 2), 2, _one_point(ALPHA_INV_SQRT2)), "per_copy_gap"),
        (lambda: minimal_pair_chain(ALPHA_INV_SQRT2, 2, 32), "generic_2"),
        (lambda: generic_basis_extension(
            [], ["b1", "b2"], 3, plain_points(ALPHA_HALF, [(1, 0, 0), (0, 1, 0)])
        ), "all_bases"),
    ], ids=["patch", "ratmin", "ratzero", "power", "chain", "basis"])
    def test_repeated_lambda_raises(self, monkeypatch, build, check):
        # the rational copies have 27 points each, past BLOCK_PROFILE_LIMIT,
        # where the union's K+ search would overrun its budget: the first
        # check that reads the curve raises before any search runs
        monkeypatch.setattr(construct, "_moment_rows", _repeating(construct._moment_rows))
        with pytest.raises(InvariantError, match=f"^{check}: the lambdas and unit points of copy 1 are distinct"):
            build()

    TIGHT, SMALL, BELOW = "s - alpha*(k - 1) >= 0", "n <= k", "delta(D/B) < 0"
    FORCED = {
        # (engine call, the pair function it calls, the pair forced, check, failed inequality)
        "ratmin-tight": (
            lambda: rational_minimal_extension([], ["b"], 0, _one_point(ALPHA_TWO_THIRDS)),
            "rational_pair", (1, 3), "minimal_pair", TIGHT,
        ),
        "patch-tight": (
            lambda: transcendental_patch([], ["b"], F(1, 3), _one_point(ALPHA_INV_SQRT2)),
            "dirichlet_window", (1, 3), "interior_condition", TIGHT,
        ),
        "chain-tight": (
            lambda: minimal_pair_chain(ALPHA_INV_SQRT2, 1, 8), "chain_pairs", (1, 3), "minimal_pair_1", TIGHT,
        ),
        "ratzero-tight": (
            lambda: rational_zero_extension([], ["b"], 0, _one_point(ALPHA_TWO_THIRDS)),
            "rational_pair", (1, 3), "small_sets_closed", TIGHT,
        ),
        "power-tight": (
            lambda: free_power_patch([], ["b"], F(1, 2), 2, _one_point(ALPHA_INV_SQRT2)),
            "dirichlet_window", (2, 4), "small_sets_closed", TIGHT,
        ),
        "ratzero-small": (
            lambda: rational_zero_extension([], ["b"], 3, _one_point(ALPHA_TWO_THIRDS)),
            "rational_pair", (1, 2), "small_sets_closed", SMALL,
        ),
        "power-small": (
            lambda: free_power_patch([], ["b"], F(1, 2), 3, _one_point(ALPHA_INV_SQRT2)),
            "dirichlet_window", (1, 2), "small_sets_closed", SMALL,
        ),
        "ratmin-below": (
            lambda: rational_minimal_extension([], ["b"], 0, _one_point(ALPHA_TWO_THIRDS)),
            "rational_pair", (2, 3), "minimal_pair", BELOW,
        ),
        "chain-below": (
            lambda: minimal_pair_chain(ALPHA_INV_SQRT2, 1, 8), "chain_pairs", (3, 4), "minimal_pair_1", BELOW,
        ),
    }

    @pytest.mark.parametrize("case", sorted(FORCED))
    def test_broken_inequality_raises(self, monkeypatch, case):
        build, function, (s, k), check, inequality = self.FORCED[case]
        pair = ApproximationPair(s, k)
        monkeypatch.setattr(construct, function, lambda *args: [pair] if function == "chain_pairs" else pair)
        with pytest.raises(InvariantError, match=f"^{re.escape(f'{check}: {inequality} does not hold')}"):
            build()


def _closed_form_table(rows, length: int, old_width: int) -> dict | None:
    """`_block_profile`'s table of integer rows (fresh part f_i of width
    s = `length`, then old part o_i) that lie on the moment curve over a
    residue of rank r <= 1, or None when they do not.

    The shapes need s >= 1 and every c_i nonzero:
      r = 0: every o_i = 0 and f_i = c_i*(1, mu_i, ..., mu_i^(s-1)), the mu_i
             distinct when s >= 2;
      r = 1: o_i = c_i*v for one nonzero v, and f_i = c_i*(mu_i, ..., mu_i^s),
             the mu_i nonzero and distinct.
    The table is ((), j): j for j <= min(s, k) and, when k > s, also
    ((), s): k for r = 0 or (key of span v, s): k for r = 1.

    Lemma.  In the coordinates (v, e_1, ..., e_s), e_t the fresh unit
    vectors, row i is c_i*(1, mu_i, ..., mu_i^s) (drop the v column for
    r = 0).  Any m of the rows have fresh rank min(m, s) and total rank
    min(m, s + r), so their residue over the old coordinates is 0 when m <= s
    and span(v) when m > s.

    Proof.  v and the e_t are independent, v being nonzero and zero on the
    fresh columns, so a subset's rank is that of its coefficient rows.  Its
    fresh parts are c_i*mu_i^r*(1, mu_i, ..., mu_i^(s-1)), a Vandermonde
    matrix with distinct nodes scaled by nonzero rows (for r = 0 and s = 1,
    the nonzero c_i), of rank min(m, s); for r = 1 its full coefficient rows
    are a Vandermonde matrix with s + 1 columns, of rank min(m, s + 1).  The
    residue has dimension rank minus fresh rank and lies in span(v).
    """
    if not length:
        return None
    s, k = length, len(rows)
    v = next((row[s:] for row in rows if any(row[s:])), None)
    p = next(t for t, x in enumerate(v) if x) if v else None
    mus, lams = set(), set()
    for row in rows:
        f, o = row[:s], row[s:]
        if not f[0] or any(x * f[0] != y * f[1] for x, y in zip(f[2:], f[1:])):
            return None
        if v is None:
            if s > 1:
                mus.add(F(f[1], f[0]))
            continue
        if not o[p] or any(x * v[p] != y * o[p] for x, y in zip(o, v)):
            return None
        b = F(o[p], v[p])
        if s == 1:
            mus.add(f[0] / b)
        elif f[1]:
            mus.add(F(f[1], f[0]))
            lams.add(f[0] * f[0] / (b * f[1]))
        else:
            return None
    if len(lams) > 1 or (mus and len(mus) < k):
        return None
    table = {((), j): j for j in range(min(s, k) + 1)}
    if k > s:
        table[() if v is None else span_key([v], old_width), s] = k
    return table


class TestMomentTable:
    """`_block_profile` walks every block.  On random moment blocks over a
    residue of rank at most one its table must equal the closed form of the
    Vandermonde lemma (`_closed_form_table`, an oracle here since the
    engines certify such unions by the fresh-block lemma), which declines
    every other shape."""

    @staticmethod
    def _nonzero(rng):
        return F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))

    def _block(self, rng, r, s, k, old_w, mus=None):
        """Rows (o_i | f_i) on old columns [0, old_w) and fresh columns
        [old_w, old_w + s): o_i = c_i*v for r = 1 and 0 for r = 0, and
        f_i = c_i*(mu_i^r, ..., mu_i^(r+s-1)), with random nonzero c_i and v
        and, unless given, random distinct mu_i, nonzero for r = 1."""
        if mus is None:
            mus = []
            while len(mus) < k:
                mu = self._nonzero(rng) if rng.random() < 0.8 else F(rng.randint(-3, 3))
                if mu not in mus and (mu or not r):
                    mus.append(mu)
        v = [F(0)] * old_w
        while r and not any(v):
            v = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(old_w)]
        rows = []
        for mu in mus:
            c = self._nonzero(rng)
            rows.append(tuple(c * x for x in v) + tuple(c * mu ** (r + t) for t in range(s)))
        return rows

    @staticmethod
    def _structure(rows, old_w, s):
        ids = [f"x{i:02d}" for i in range(len(rows))]
        S = empty_structure(ALPHA_TWO_THIRDS, ambient=old_w + s).extended(
            [GroundElement(i, row) for i, row in zip(ids, rows)], new_colored=ids
        )
        walk_rows = [S.introw(i)[old_w:] + S.introw(i)[:old_w] for i in ids]
        return S, ids, walk_rows

    def test_closed_form_matches_the_walk(self, rng):
        seen = set()
        for trial in range(48):
            r, s, k = trial % 2, rng.randint(1, 4), rng.randint(1, BLOCK_PROFILE_LIMIT)
            if trial < 8:
                k = BLOCK_PROFILE_LIMIT - trial // 2
            old_w = rng.randint(r, 3)
            S, ids, rows = self._structure(self._block(rng, r, s, k, old_w), old_w, s)
            table = _closed_form_table(rows, s, old_w)
            assert table is not None
            assert table == _block_profile(S, old_w, ids, old_w, s)
            seen.add((r, k > s))
        assert seen == {(r, past) for r in (0, 1) for past in (False, True)}

    def _declined(self, rng, case):
        """(rows, old width, s) of a block off the closed form's shapes."""
        r, s, k, old_w = rng.randint(case == "v scale", 1), rng.randint(3, 4), rng.randint(3, 9), 2
        if case == "repeated mu":
            return self._block(rng, r, s, k, old_w, [F(i + 1) for i in range(k - 1)] + [F(1)]), old_w, s
        if case == "mu = 0":
            return self._block(rng, 1, s, k, old_w, [F(i) for i in range(k)]), old_w, s
        if case == "length 0":
            return self._block(rng, 1, 0, k, old_w), old_w, 0
        if case == "r = 2":  # o_i = c_i*(1, mu_i^(s+1)), no two proportional
            rows = []
            for mu in (F(j + 1) for j in range(k)):
                c = self._nonzero(rng)
                rows.append(tuple(c * mu ** t for t in (0, s + 1, *range(1, s + 1))))
            return rows, old_w, s
        rows = self._block(rng, r, s, k, old_w)
        i = rng.randrange(k)
        if case == "c = 0":
            rows[i] = (F(0),) * (old_w + s)
        elif case == "perturbed":
            rows[i] = rows[i][:-1] + (rows[i][-1] + 1,)
        elif case == "v scale":  # o_i = 2*c_i*v: proportional old parts, off the curve
            rows[i] = tuple(2 * x for x in rows[i][:old_w]) + rows[i][old_w:]
        return rows, old_w, s

    @pytest.mark.parametrize(
        "case", ["repeated mu", "mu = 0", "c = 0", "perturbed", "v scale", "r = 2", "length 0"]
    )
    def test_declined_blocks_are_walked(self, rng, case):
        for _ in range(6):
            block, old_w, s = self._declined(rng, case)
            rows = [int_row(row)[old_w:] + int_row(row)[:old_w] for row in block]
            assert _closed_form_table(rows, s, old_w) is None


class TestGrowPatchPayloads:
    """`grow_patch` hands each new point in as its integer payload, made by
    `_moment_rows` in integers: it equals `int_payload` of the point's
    `Fraction` vector, and that vector is sum_i lam^(i-1)*u_i (`_gamma`,
    computed here in `Fraction`s over the basis B picks in id order), over
    bases with non-integer payloads, s = 0, 1, 2 and one to three copies.
    The task catalog's patch keeps the bytes it had when the rows were made
    in `Fraction`s."""

    def test_payloads_are_int_payloads(self, rng):
        for trial in range(30):
            width, s, copies = rng.randint(1, 3), trial % 3, 1 + trial // 3 % 3
            rows = [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(width)] for _ in range(rng.randint(1, 3))]
            rows = [row for row in rows if any(row)] or [[F(1, 2)] * width]
            S = ColoredStructure(
                Backend(LINEAR, width), tuple(GroundElement(f"b{i}", tuple(r)) for i, r in enumerate(rows)),
                frozenset(), ALPHA_TWO_THIRDS,
            )
            kept, ints = [], _int_rows(S)
            for i in range(len(rows)):
                if rank_int_matrix([ints[j] for j in [*kept, i]], width) > len(kept):
                    kept.append(i)
            k, lam0 = rng.randint(1, 4), rng.randint(1, 3)
            S2, ids = grow_patch(S, S.id_set, s, k, colored=True, lam_start=lam0, copies=copies)
            new_width = width + copies * s
            basis = [list(rows[i]) + [F(0)] * (new_width - width) for i in kept]
            for c in range(copies):
                for i, eid in enumerate(ids[c * k:(c + 1) * k]):
                    vec = S2.element(eid).vec
                    assert S2.payload(eid) == pregeom.int_payload(vec)
                    assert list(vec) == _gamma(basis, new_width, width + c * s, s, lam0 + c * k + i)

    @pytest.mark.parametrize("alpha, digest", [
        (ALPHA_TWO_THIRDS, "870627bddb5e7a89"),
        (Alpha.rational(3, 5), "eb669d21f395ff67"),
        (ALPHA_INV_SQRT2, "623570e03e0680fc"),
        (Alpha.quadratic(0, 1, 3, 3), "5fbdafeb36a94e16"),
    ], ids=["2/3", "3/5", "1/sqrt2", "1/sqrt3"])
    def test_catalog_patch_bytes(self, alpha, digest):
        patch = next(t for t in workbench.task_catalog(alpha, 5) if t.task_id.startswith("patch"))
        assert hashlib.sha256(workbench.dumps(patch.big).encode()).hexdigest()[:16] == digest
        assert all(patch.big.payload(i) == pregeom.int_payload(patch.big.element(i).vec) for i in patch.big.ids_sorted)


class TestConstruction:
    """Every structure-building engine returns one `Construction`: its new ids
    are the grown structure's ids past the input's, and its copies, delta gap
    and chain levels agree with the structure."""

    ENGINES = {
        "basis": lambda: generic_basis_extension(
            [], ["b1", "b2"], 2, plain_points(ALPHA_HALF, [(1, 0, 0), (0, 1, 0)])
        ),
        "patch": lambda: transcendental_patch([], ["b"], F(1, 3), _one_point(ALPHA_INV_SQRT2)),
        "power": lambda: free_power_patch([], ["b"], F(1, 2), 2, _one_point(ALPHA_INV_SQRT2)),
        "ratmin": lambda: rational_minimal_extension([], ["b"], 0, _one_point(ALPHA_TWO_THIRDS)),
        "ratzero": lambda: rational_zero_extension([], ["b"], 0, _one_point(ALPHA_TWO_THIRDS)),
    }
    INPUT_IDS = {"basis": {"b1", "b2"}}

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_new_ids_are_the_grown_ids(self, name):
        res = self.ENGINES[name]()
        assert type(res) is construct.Construction
        assert len(set(res.new_ids)) == len(res.new_ids) > 0
        assert set(res.new_ids) == res.structure.id_set - self.INPUT_IDS.get(name, {"b"})

    @pytest.mark.parametrize("name", ["patch", "power", "ratmin", "ratzero"])
    def test_delta_gap_is_each_copys_gap(self, name):
        res = self.ENGINES[name]()
        assert res.delta_gap == PreDimValue(res.pair.s, res.pair.k)
        for copy in res.copies:
            assert len(copy) == res.pair.k
            assert delta(res.structure, copy, ["b"]) == res.delta_gap

    def test_chain_copies_are_its_levels(self):
        res = minimal_pair_chain(ALPHA_INV_SQRT2, 2, 32)
        assert res.copies == [lv.e_ids + lv.f_ids for lv in res.levels[1:]]
        assert set(res.new_ids) == res.structure.id_set - {"d0"}
        assert len(res.new_ids) == len(res.structure) - 1

    def test_one_result_type(self):
        classes = {
            name for name, obj in vars(construct).items()
            if isinstance(obj, type) and obj.__module__ == construct.__name__
        }
        assert classes == {"ChainLevel", "Construction", "DeltaSystemResult"}


_RATIONAL_PINS = [
    (1, rational_zero_extension, "146a789d1c05a7fd", "924e9f9aed77f682", "080bcc97c32c2f4e", "01461d890edc09a3"),
    (1, rational_minimal_extension, "a5ed7e29050d6565", "a1423c6f1acf2a95", "c643e65720b4b58b", "c599576fe6b093cb"),
    (2, rational_zero_extension, "a4d028a5521c2b12", "8964753a0505c2f8", "55992faca32b31af", "6352e59c25b5db0c"),
    (2, rational_minimal_extension, "85f1f76a921f9f4f", "6f1085ad699a66e9", "35bb0352c4ea5f8f", "c249f57c301a5185"),
]


class TestRationalGoldenBytes:
    """Canonical structure and checks of the rational engines at alpha = 2/3,
    t = 1, over one plain base point b, pinned by sha256 prefix.  Each step
    back puts the methods of the checks it names back to exhaustive: before
    the whole-curve lemma read the value checks delta_exact, per_copy_gap
    and zero_gap off the moment curve (reducers computed them) the bytes
    hashed to `reducer_digest`, before the fresh-block lemma certified
    ambient_k_plus and anchor_closed (the free-union DP decided them) to
    `dp_digest`, and before the subset checks tried the moment-shape
    certificate first to `old_digest` (which names each case).  Nothing
    else differs."""

    STEPS_BACK = [
        ("delta_exact", "per_copy_gap", "zero_gap"),
        ("anchor_closed", "ambient_k_plus"),
        ("generic_position", "interior_condition", "minimal_pair", "small_sets_closed"),
    ]

    @pytest.mark.parametrize(
        "payload, engine, digest, reducer_digest, dp_digest, old_digest",
        _RATIONAL_PINS,
        ids=[f"{p}-{engine.__name__}-{old}" for p, engine, *_, old in _RATIONAL_PINS],
    )
    def test_bytes(self, payload, engine, digest, reducer_digest, dp_digest, old_digest):
        res = engine([], ["b"], 1, _one_point(ALPHA_TWO_THIRDS, payload))
        structure = workbench.dumps(res.structure)
        checks = [c.to_json() for c in res.checks]
        blob = structure + canonical_dumps(checks)
        assert hashlib.sha256(blob.encode()).hexdigest()[:16] == digest
        for names, want in zip(self.STEPS_BACK, (reducer_digest, dp_digest, old_digest)):
            for c in checks:
                if c["name"] in names:
                    assert c["method"] == "certified"
                    c["method"] = "exhaustive"
            blob = structure + canonical_dumps(checks)
            assert hashlib.sha256(blob.encode()).hexdigest()[:16] == want


class TestChainGoldenBytes:
    """Canonical structure and checks of the `chain` benchmark's two chains,
    pinned by sha256 prefix.  Before the subset checks tried the moment-shape
    certificate first they hashed to `exhaustive_digest`, which differs only
    in each level's generic_l and minimal_pair_l, then exhaustive.  Before
    the tower certificate they hashed to `old_digest`, which differs from
    that in ambient_k_plus's method alone."""

    @pytest.mark.parametrize(
        "alpha, depth, pairs, digest, exhaustive_digest, old_method, old_digest",
        [
            (Alpha.quadratic(1, 1, 6, 3), 3, [(3, 7), (4, 9), (5, 11)],
             "cd05fddf3de8b30c", "5bb43094ff87ba75", "sampled", "937c76f050e6f2f6"),
            (ALPHA_INV_SQRT2, 2, [(2, 3), (7, 10)],
             "1cad0cac292e3403", "e0e884c7bfb6f2e5", "exhaustive", "1a2abcb4dc5ae755"),
        ],
        ids=["(1+sqrt3)/6-depth3", "1/sqrt2-depth2"],
    )
    def test_bytes(self, alpha, depth, pairs, digest, exhaustive_digest, old_method, old_digest):
        res = minimal_pair_chain(alpha, depth, 32)
        assert [(lv.pair.s, lv.pair.k) for lv in res.levels[1:]] == pairs
        structure = workbench.dumps(res.structure)
        checks = [c.to_json() for c in res.checks]
        blob = structure + canonical_dumps(checks)
        assert hashlib.sha256(blob.encode()).hexdigest()[:16] == digest
        assert checks[-1] == {"name": "ambient_k_plus", "pass": True, "method": "certified"}
        for c in checks[:-1]:
            if c["name"].startswith(("generic_", "minimal_pair_")):
                assert c["method"] == "certified"
                c["method"] = "exhaustive"
        blob = structure + canonical_dumps(checks)
        assert hashlib.sha256(blob.encode()).hexdigest()[:16] == exhaustive_digest
        checks[-1]["method"] = old_method
        blob = structure + canonical_dumps(checks)
        assert hashlib.sha256(blob.encode()).hexdigest()[:16] == old_digest
