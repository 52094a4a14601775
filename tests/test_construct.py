import itertools
from fractions import Fraction as F

import pytest

from bicolor.closure import is_minimal_pair
from bicolor.colored import ColoredStructure, delta, in_k_plus
from bicolor.construct import (
    chain_pairs,
    chain_window,
    delta_system_closed_root,
    free_power_patch,
    generic_basis_extension,
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
    IrrationalAlpha,
    NotClosed,
    NotIndependent,
    RationalAlpha,
)
from bicolor.exactnum import Alpha, ApproximationPair, PreDimValue, QuadRat
from bicolor.pregeom import Backend, FREE, GroundElement, LINEAR

from conftest import ALPHA_HALF, ALPHA_INV_SQRT2, ALPHA_ONE, ALPHA_TWO_THIRDS
from test_colored import ge


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
        assert all(c.passed and c.method == "exhaustive" for c in res.checks)

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


class TestFreeUnionVerifier:
    def _blocks_structure(self, rng, alpha, n_old, blocks_spec):
        """Old independent part plus moment blocks over a base subset."""
        from bicolor.construct import _grow_patch
        from bicolor.colored import empty_structure
        from bicolor.pregeom import GroundElement

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
        blocks = []
        lam = 1
        for s, k in blocks_spec:
            start = S.backend.ambient_dim
            S, ids = _grow_patch(S, base, s, k, colored=True, lam_start=lam)
            lam += k
            blocks.append((ids, start, s))
        return S, blocks, n_old

    def test_dp_matches_brute_force(self, rng):
        import itertools as it
        from bicolor.construct import _free_union_min
        from bicolor.exactnum import compare

        from conftest import ALL_ALPHAS

        for trial in range(25):
            alpha = ALL_ALPHAS[trial % 4]
            spec = [(rng.randint(1, 2), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            S, blocks, old_w = self._blocks_structure(rng, alpha, rng.randint(1, 3), spec)
            got = _free_union_min(S, (), old_w, blocks)
            cands = sorted(S.colored)
            best = None
            for r in range(len(cands) + 1):
                for combo in it.combinations(cands, r):
                    v = delta(S, combo)
                    if best is None or compare(v, best, alpha) < 0:
                        best = v
            assert compare(got, best, alpha) == 0

    def test_dp_matches_brute_force_primed(self, rng):
        import itertools as it
        from bicolor.construct import _free_union_min
        from bicolor.exactnum import compare

        from conftest import ALL_ALPHAS

        for trial in range(15):
            alpha = ALL_ALPHAS[trial % 4]
            S, blocks, old_w = self._blocks_structure(
                rng, alpha, 3, [(1, rng.randint(1, 3)), (2, rng.randint(1, 3))]
            )
            prime = ["o0"]
            got = _free_union_min(S, prime, old_w, blocks)
            cands = sorted(S.colored - set(prime))
            best = None
            for r in range(len(cands) + 1):
                for combo in it.combinations(cands, r):
                    v = delta(S, combo, prime)
                    if best is None or compare(v, best, alpha) < 0:
                        best = v
            assert compare(got, best, alpha) == 0

    def test_dp_matches_branch_and_bound_medium(self, rng):
        # two independent exact engines must agree at medium scale
        from bicolor.colored import min_relative_delta
        from bicolor.construct import _free_union_min
        from bicolor.exactnum import compare

        from conftest import ALL_ALPHAS

        for trial in range(8):
            alpha = ALL_ALPHAS[trial % 4]
            spec = [(rng.randint(1, 3), rng.randint(2, 5)) for _ in range(rng.randint(2, 4))]
            S, blocks, old_w = self._blocks_structure(rng, alpha, rng.randint(2, 4), spec)
            got = _free_union_min(S, (), old_w, blocks)
            want, _ = min_relative_delta(S, ())
            assert compare(got, want, alpha) == 0
