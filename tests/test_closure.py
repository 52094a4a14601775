import importlib
import itertools
import random
from fractions import Fraction as F

import pytest

from bicolor.closure import (
    big_cl,
    closed_with_witness,
    closure,
    closure_n,
    closure_with_steps,
    d_independent,
    d_independent_report,
    d_value,
    intrinsic_tower,
    is_closed,
    is_intrinsic,
    is_minimal_pair,
)
from bicolor.colored import ColoredStructure, delta, in_k_plus
from bicolor.construct import free_power_patch, minimal_pair_chain, transcendental_patch
from bicolor.errors import NotInKPlus
from bicolor.exactnum import Alpha, PreDimValue, compare
from bicolor.pregeom import Backend, GroundElement, LINEAR

from conftest import (
    ALL_ALPHAS,
    ALPHA_GOLDEN,
    ALPHA_HALF,
    ALPHA_INV_SQRT2,
    ALPHA_ONE,
    ALPHA_TWO_THIRDS,
    SEARCH_ALPHAS,
    SubsetTable,
    alpha_sign,
    brute_closure,
    brute_d_value,
    brute_is_closed,
    brute_in_k_plus,
    random_dependent_structure,
    random_k_plus_structure,
    random_structure,
)
from test_colored import ge, witness_structure

# the package exports a function named `closure`, which hides the module
closure_module = importlib.import_module("bicolor.closure")


class TestIsClosed:
    def test_whole_set(self):
        S = witness_structure()
        assert is_closed(S.id_set, S)

    def test_empty_closed_in_k_plus(self):
        assert is_closed([], witness_structure())

    def test_witness(self):
        S = witness_structure()
        ok, w = closed_with_witness(["a"], S)
        assert not ok
        assert w == {"b1", "b2"}
        assert delta(S, w, ["a"]).sign(S.alpha) < 0

    def test_requires_k_plus(self):
        bad = ColoredStructure(
            Backend(LINEAR, 2),
            (ge("x", 0, 1), ge("y", 0, 2)),
            frozenset({"x", "y"}),
            ALPHA_TWO_THIRDS,
        )
        with pytest.raises(NotInKPlus):
            is_closed(["x"], bad)

    def test_oracle(self, rng):
        for i in range(80):
            S = random_k_plus_structure(rng, ALL_ALPHAS[i % 4], max_n=6, max_dim=4)
            ids = list(S.ids_sorted)
            x = rng.sample(ids, rng.randint(0, len(ids)))
            assert is_closed(x, S) == brute_is_closed(S, x)


def test_closure_queries_match_subset_table():
    """is_closed, the least violator, closure and D(A) against the table on
    K+ structures of up to nine points with dependent payloads."""
    rng = random.Random(0xC105)
    steps = []
    for i in range(120):
        alpha = SEARCH_ALPHAS[i % 4]
        S = random_dependent_structure(rng, alpha, rng.randint(3, 9), rng.randint(2, 6), 0.4)
        if not brute_in_k_plus(S):
            continue
        table = SubsetTable(S)
        ids = list(S.ids_sorted)
        x = rng.sample(ids, rng.randint(0, 3))
        assert is_closed(x, S) == brute_is_closed(S, x)
        cl, n = closure_with_steps(x, S)
        assert cl == brute_closure(S, x, table)
        assert compare(d_value(x, S), PreDimValue(*brute_d_value(S, x)), alpha) == 0
        steps.append(n)
    assert len(steps) >= 60 and sum(n >= 1 for n in steps) >= 20


class TestClosure:
    def test_empty(self):
        assert closure([], witness_structure()) == frozenset()

    def test_one_step(self):
        got, steps = closure_with_steps(["a"], witness_structure())
        assert got == {"a", "b1", "b2"}
        assert steps == 1

    def test_power_patch_closure_matches_hand_count(self, monkeypatch):
        """free_power_patch([], ["b"], 1/2, 2, b) at alpha = 1/sqrt(2) is
        eight copies d1-d3, d4-d6, ..., d22-d24 of three points, s = 2 fresh
        columns each, all also 1 on b's column.  Over {d1}, the b direction
        adds +1 once, {d2, d3} adds 1 - 2 alpha < 0, a whole other copy
        2 - 3 alpha < 0 and any part of one at least 1 - alpha > 0.  So a
        violator holds d2, d3 and at least five copies (four give 10 - 14
        alpha >= 0, and seven copies without d2, d3 give 15 - 21 alpha >= 0):
        17 points, the lex-least copies being d10-d24.  Two single copies
        follow."""
        base = ColoredStructure(Backend(LINEAR, 1), (ge("b", 1),), frozenset(), ALPHA_INV_SQRT2)
        P = free_power_patch([], ["b"], F(1, 2), 2, base).structure
        copies = [{f"d{i}" for i in range(c, c + 3)} for c in range(1, 25, 3)]
        pair = {"d2", "d3"}
        assert P.id_set == {"b"}.union(*copies)
        assert delta(P, pair.union(*copies[3:7]), ["d1"]) == PreDimValue(10, 14)
        assert delta(P, pair.union(*copies[3:]), ["d1"]) == PreDimValue(12, 17)
        assert delta(P, set().union(*copies[1:]), ["d1"]) == PreDimValue(15, 21)
        witnesses = []
        search = closure_module.min_violating_witness

        def recording(*args, **kwargs):
            witnesses.append(search(*args, **kwargs))
            return witnesses[-1]

        monkeypatch.setattr(closure_module, "min_violating_witness", recording)
        got, steps = closure_with_steps(["d1"], P)
        assert (got, steps) == (set().union(*copies), 3)
        assert witnesses == [pair.union(*copies[3:]), copies[1], copies[2], None]

    def test_idempotent(self):
        S = witness_structure()
        c = closure(["a"], S)
        assert closure(c, S) == c

    def test_monotone(self, rng):
        for i in range(40):
            S = random_k_plus_structure(rng, ALL_ALPHAS[i % 4], max_n=6, max_dim=4)
            ids = list(S.ids_sorted)
            a = set(rng.sample(ids, rng.randint(0, len(ids))))
            b = a | set(rng.sample(ids, rng.randint(0, len(ids))))
            assert closure(a, S) <= closure(b, S)

    def test_oracle_least_closed_superset(self, rng):
        for i in range(60):
            S = random_k_plus_structure(rng, ALL_ALPHAS[i % 4], max_n=7, max_dim=4)
            ids = list(S.ids_sorted)
            a = rng.sample(ids, rng.randint(0, len(ids)))
            assert closure(a, S) == brute_closure(S, a)

    def test_union_of_finite_subsets(self, rng):
        # closure(A) = union of closures of subsets of A of size <= |A|
        for i in range(20):
            S = random_k_plus_structure(rng, ALL_ALPHAS[i % 4], max_n=6, max_dim=3)
            ids = list(S.ids_sorted)
            a = rng.sample(ids, rng.randint(0, len(ids)))
            whole = closure(a, S)
            parts = set()
            for r in range(len(a) + 1):
                for sub in itertools.combinations(a, r):
                    parts |= closure(sub, S)
            assert parts == whole

    def test_closed_intersection(self, rng):
        for i in range(40):
            S = random_k_plus_structure(rng, ALL_ALPHAS[i % 4], max_n=6, max_dim=4)
            ids = list(S.ids_sorted)
            x = closure(rng.sample(ids, rng.randint(0, len(ids))), S)
            y = closure(rng.sample(ids, rng.randint(0, len(ids))), S)
            assert is_closed(x & y, S)

    def test_colored_exclusion(self, rng):
        # no colored point of acl(X) minus X for closed X
        from bicolor.pregeom import acl_in

        for i in range(40):
            S = random_k_plus_structure(rng, ALL_ALPHAS[i % 4], max_n=6, max_dim=3)
            ids = list(S.ids_sorted)
            x = closure(rng.sample(ids, rng.randint(0, len(ids))), S)
            trace = {
                e.id
                for e in acl_in(
                    [S.element(i) for i in x], list(S.elements), S.backend
                )
            }
            assert not ((trace - x) & S.colored)


class TestClosureN:
    def test_n_one_is_identity(self):
        S = witness_structure()
        assert closure_n(["a"], S, 1) == {"a"}

    def test_witness_at_three(self):
        S = witness_structure()
        assert closure_n(["a"], S, 3) == {"a", "b1", "b2"}

    def test_all_plain_fixed(self):
        S = ColoredStructure(
            Backend(LINEAR, 2),
            (ge("a", 1, 0), ge("b", 2, 0), ge("c", 0, 1)),
            frozenset(),
            ALPHA_HALF,
        )
        for n in range(4):
            assert closure_n(["a"], S, n) == {"a"}

    def test_union_of_intrinsic_oracle(self, rng):
        # cl(A) equals the union of intrinsic extensions (big enough n)
        for i in range(30):
            S = random_k_plus_structure(rng, ALL_ALPHAS[i % 4], max_n=6, max_dim=3)
            ids = list(S.ids_sorted)
            a = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
            assert closure_n(a, S, len(S) + 1) == closure(a, S)


class TestMinimalPairsIntrinsic:
    def test_witness_pair(self):
        S = witness_structure()
        assert is_minimal_pair(["a"], ["a", "b1", "b2"], S)

    def test_reflexive_not_minimal(self):
        S = witness_structure()
        assert not is_minimal_pair(["a"], ["a"], S)

    def test_intermediate_not_minimal(self):
        S = witness_structure()
        assert not is_minimal_pair(["a"], ["a", "b1"], S)

    def test_intrinsic_examples(self):
        S = witness_structure()
        assert is_intrinsic(["a"], ["a"], S)
        assert is_intrinsic(["a"], ["a", "b1", "b2"], S)
        assert not is_intrinsic(["a"], ["a", "b1"], S)

    def test_tower(self):
        S = witness_structure()
        tower = intrinsic_tower(["a"], ["a", "b1", "b2"], S)
        assert tower[0] == {"a"} and tower[-1] == {"a", "b1", "b2"}
        for lo, hi in zip(tower, tower[1:]):
            assert is_minimal_pair(lo, hi, S)

    def test_minimal_pair_implies_intrinsic(self, rng):
        for i in range(30):
            S = random_k_plus_structure(rng, ALL_ALPHAS[i % 4], max_n=6, max_dim=3, color_p=0.6)
            ids = list(S.ids_sorted)
            a = set(rng.sample(ids, rng.randint(0, max(0, len(ids) - 1))))
            extra = set(rng.sample(sorted(set(ids) - a), rng.randint(0, len(ids) - len(a))))
            b = a | extra
            if is_minimal_pair(a, b, S):
                assert is_intrinsic(a, b, S)

    def test_intrinsic_and_minimal_match_subset_table(self, rng):
        # B is intrinsic over A iff delta(B) < delta(A') for every A <= A'
        # strictly inside B, and a minimal pair iff delta(B/A) < 0 with every
        # nonempty proper C over A nonnegative; both read off the mask table
        seen = {"intrinsic": 0, "minimal": 0, "neither": 0}
        for i in range(300):
            alpha = ALL_ALPHAS[i % 4]
            S = random_structure(rng, alpha, max_n=7, max_dim=4, color_p=0.7)
            table = SubsetTable(S)
            sign = alpha_sign(alpha)
            ids = list(S.ids_sorted)
            b = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
            a = frozenset(rng.sample(sorted(b), rng.randint(0, len(b))))
            ma, mb = table.mask_of(a), table.mask_of(b)
            inner = [m for m in range(mb) if m & mb == m and m & ma == ma and m != mb]
            intrinsic = all(
                sign(table.dim[mb] - table.dim[m], table.col[mb] - table.col[m]) < 0
                for m in inner
            )
            minimal = mb != ma and table.delta_sign(mb ^ ma, ma) < 0 and all(
                table.delta_sign(m ^ ma, ma) >= 0 for m in inner if m != ma
            )
            assert is_intrinsic(a, b, S) == intrinsic
            assert is_minimal_pair(a, b, S) == minimal
            seen["intrinsic" if intrinsic else "neither"] += 1
            seen["minimal"] += minimal
        assert min(seen.values()) > 10, seen

    def test_chain_levels_pinned(self):
        """Verdicts on every level of the (1 + sqrt(3))/6 depth-3 chain and on
        pairs next to it: one point fewer on top (delta >= 0), one point more
        or the base point fewer below, and two levels at once (early exits)."""
        res = minimal_pair_chain(Alpha.quadratic(1, 1, 6, 3), 3, 32)
        S = res.structure
        got = []
        for lo, hi in zip(res.levels, res.levels[1:]):
            new = sorted(set(hi.d_ids) - set(lo.d_ids))
            got.append((
                is_minimal_pair(lo.d_ids, hi.d_ids, S),
                is_minimal_pair(lo.d_ids, set(hi.d_ids) - {new[-1]}, S),
                is_minimal_pair(set(lo.d_ids) | {new[0]}, hi.d_ids, S),
                is_minimal_pair(set(lo.d_ids) - {"d0"}, hi.d_ids, S),
            ))
        assert got == [(True, False, False, False)] * 3
        assert not is_minimal_pair(res.levels[0].d_ids, res.levels[2].d_ids, S)

    def test_dependent_payloads_with_plain_points_inside(self):
        """Both verdicts against the mask table on structures of up to ten
        points with repeated and dependent payloads, B minus A often holding
        plain points, at alpha = 1/2, 2/3, 1/sqrt(2) and (sqrt(5) - 1)/2."""
        rng = random.Random(0x1A7)
        seen = {"intrinsic": 0, "minimal": 0, "plain inside": 0}
        for i in range(240):
            alpha = SEARCH_ALPHAS[i % 4]
            S = random_dependent_structure(rng, alpha, rng.randint(3, 10), rng.randint(2, 5), 0.7)
            table = SubsetTable(S)
            ids = list(S.ids_sorted)
            b = frozenset(rng.sample(ids, rng.randint(1, len(ids))))
            a = frozenset(rng.sample(sorted(b), rng.randint(0, len(b) - 1)))
            ma, mb = table.mask_of(a), table.mask_of(b)
            inner = [m for m in range(mb) if m & mb == m and m & ma == ma]
            intrinsic = all(
                table._sign(table.dim[mb] - table.dim[m], table.col[mb] - table.col[m]) < 0
                for m in inner
            )
            minimal = table.delta_sign(mb ^ ma, ma) < 0 and all(
                table.delta_sign(m ^ ma, ma) >= 0 for m in inner if m != ma
            )
            assert is_intrinsic(a, b, S) == intrinsic
            assert is_minimal_pair(a, b, S) == minimal
            seen["intrinsic"] += intrinsic
            seen["minimal"] += minimal
            # the walk runs, and must find a failing subset: B minus a plain
            # point never has the larger delta
            seen["plain inside"] += bool((b - a) - S.colored) and table.delta_sign(mb ^ ma, ma) < 0
        assert min(seen.values()) >= 10, seen

    def test_intrinsic_tie_below_a_skipped_plain_point(self):
        """delta(C/A) = delta(B/A) for C = B minus the plain point b, which
        sorts first: the walk meets C only below the node that skipped b,
        whose bound delta({c1}/A) - alpha * 1 equals delta(B/A), so the
        prune there must be strict."""
        for alpha in (ALPHA_TWO_THIRDS, ALPHA_INV_SQRT2, ALPHA_ONE):
            S = ColoredStructure(
                Backend(LINEAR, 2),
                (ge("a", 1, 0), ge("b", 0, 1), ge("c1", 1, 1), ge("c2", 2, 1)),
                frozenset({"c1", "c2"}),
                alpha,
            )
            assert not is_intrinsic(["a"], ["a", "b", "c1", "c2"], S)
            assert is_intrinsic(["a"], ["a", "c1", "c2"], S)

    def test_minimal_pair_walk_pinned(self, monkeypatch):
        """The 9-point patch of the query workload's median job, (s, k) =
        (4, 9) at 1/sqrt(5) over one plain point, is a minimal pair, found
        by walking 36 of the 512 subsets of its new points."""
        alpha = Alpha.quadratic(0, 1, 5, 5)
        base = ColoredStructure(Backend(LINEAR, 1), (ge("b", 1),), frozenset(), alpha)
        S = transcendental_patch([], ["b"], F(1, 10), base).structure
        walked, original = [], closure_module.walk

        def counting(*args, **kwargs):
            for node in original(*args, **kwargs):
                walked.append(node[2])
                yield node

        monkeypatch.setattr(closure_module, "walk", counting)
        assert len(S) == 10 and is_minimal_pair(["b"], S.id_set, S)
        assert (sum(walked), len(walked)) == (36, 71)


class TestSmoothClassAxioms:
    def test_axioms_on_random_nests(self, rng):
        for i in range(120):
            S = random_k_plus_structure(rng, ALL_ALPHAS[i % 4], max_n=6, max_dim=4)
            ids = list(S.ids_sorted)
            # (1) empty and whole set closed
            assert is_closed([], S) and is_closed(ids, S)
            z = closure(rng.sample(ids, rng.randint(0, len(ids))), S)
            sub = S.restrict(z)
            y = closure(rng.sample(sorted(z), rng.randint(0, len(z))), sub)
            # (2) transitivity: y closed in z, z closed in S => y closed in S
            assert is_closed(y, S)
            # (3) restriction: y closed in S => y closed in any intermediate
            mid = set(y) | set(rng.sample(ids, rng.randint(0, len(ids))))
            assert is_closed(y, S.restrict(mid))
            # (4) intersecting a closed set with anything is closed there
            w = set(rng.sample(ids, rng.randint(0, len(ids))))
            assert is_closed(set(y) & w, S.restrict(w))


class TestDValue:
    def test_whole_set(self):
        S = witness_structure()
        assert d_value(S.id_set, S) == delta(S, S.id_set)

    def test_witness_example(self):
        S = witness_structure()
        v = d_value(["a"], S)
        assert v.value(S.alpha).render() == "2/3"

    def test_all_plain(self, rng):
        S = ColoredStructure(
            Backend(LINEAR, 2),
            (ge("a", 1, 0), ge("b", 0, 1)),
            frozenset(),
            ALPHA_HALF,
        )
        assert d_value(["a"], S) == PreDimValue(1, 0)

    def test_oracle(self, rng):
        for i in range(60):
            S = random_k_plus_structure(rng, ALL_ALPHAS[i % 4], max_n=6, max_dim=4)
            ids = list(S.ids_sorted)
            a = rng.sample(ids, rng.randint(0, len(ids)))
            got = d_value(a, S)
            want = brute_d_value(S, a)
            assert compare(got, PreDimValue(*want), S.alpha) == 0

    def test_rational_closure_identity(self, rng):
        # Internally asserted too; re-check the equality explicitly.
        for i in range(40):
            alpha = [ALPHA_ONE, ALPHA_HALF, ALPHA_TWO_THIRDS][i % 3]
            S = random_k_plus_structure(rng, alpha, max_n=6, max_dim=4)
            ids = list(S.ids_sorted)
            a = rng.sample(ids, rng.randint(0, len(ids)))
            assert compare(d_value(a, S), delta(S, closure(a, S)), alpha) == 0

    @pytest.mark.parametrize("alpha", [ALPHA_INV_SQRT2, ALPHA_GOLDEN, Alpha.quadratic(0, 1, 3, 3)])
    def test_closure_identity_at_quadratic_alpha(self, alpha):
        # D(A) = delta(cl(A)) holds at every alpha (closure's module docstring)
        rng = random.Random(repr(alpha))
        for _ in range(40):
            S = random_k_plus_structure(rng, alpha, max_n=7, max_dim=4, color_p=0.5)
            ids = list(S.ids_sorted)
            a = rng.sample(ids, rng.randint(0, len(ids)))
            got = d_value(a, S)
            assert compare(got, delta(S, closure(a, S)), alpha) == 0
            assert compare(got, PreDimValue(*brute_d_value(S, a)), alpha) == 0

    def test_monotone_under_ambient_growth(self, rng):
        for i in range(30):
            S = random_k_plus_structure(rng, ALL_ALPHAS[i % 4], max_n=5, max_dim=3)
            ids = list(S.ids_sorted)
            a = rng.sample(ids, rng.randint(0, len(ids)))
            before = d_value(a, S)
            grown = S.extended(
                [GroundElement("zz", tuple([F(1)] + [F(0)] * (S.backend.ambient_dim - 1)))]
            )
            if in_k_plus(grown):
                assert compare(d_value(a, grown), before, S.alpha) <= 0


class TestBigCL:
    def test_whole(self):
        S = witness_structure()
        assert big_cl(S.id_set, S) == S.id_set

    def test_witness(self):
        S = witness_structure()
        assert {"b1", "b2"} <= big_cl(["a"], S)

    def test_plain_independent_not_in_cl_empty(self):
        S = ColoredStructure(
            Backend(LINEAR, 1), (ge("x", 1),), frozenset(), ALPHA_HALF
        )
        assert "x" not in big_cl([], S)


class TestDIndependence:
    def test_b_in_z_trivial(self):
        S = witness_structure()
        assert d_independent(["b1"], ["a"], ["a"], S)

    def test_plain_singletons_independent(self):
        S = ColoredStructure(
            Backend(LINEAR, 2),
            (ge("x", 1, 0), ge("y", 0, 1)),
            frozenset(),
            ALPHA_HALF,
        )
        assert d_independent(["x"], ["y"], [], S)

    def test_witness_structure_follows_definition(self):
        # cl({a}) already swallows b1 and b2, so the defining conditions hold
        # over the non-closed base {a}.
        S = witness_structure()
        rep = d_independent_report(["b1"], ["b2"], ["a"], S)
        assert not rep["zClosed"]
        assert rep["independent"]

    def test_parallel_points_dependent(self):
        S = ColoredStructure(
            Backend(LINEAR, 2),
            (ge("x", 0, 1), ge("y", 0, 2)),
            frozenset(),
            ALPHA_HALF,
        )
        assert not d_independent(["x"], ["y"], [], S)

    def test_three_condition_cross_check_runs_clean(self, rng):
        # closed bases exercise the three-condition characterization; any
        # disagreement raises InvariantError and would fail this test.
        for i in range(60):
            S = random_k_plus_structure(rng, ALL_ALPHAS[i % 4], max_n=6, max_dim=4)
            ids = list(S.ids_sorted)
            z = closure(rng.sample(ids, rng.randint(0, len(ids))), S)
            a = rng.sample(ids, rng.randint(0, min(3, len(ids))))
            b = rng.sample(ids, rng.randint(0, min(3, len(ids))))
            rep = d_independent_report(a, b, z, S)
            assert rep["zClosed"]
            assert "threeConditionForm" in rep


class TestFreeBackendClosure:
    def _free(self, colored):
        from bicolor.pregeom import Backend, FREE, GroundElement

        return ColoredStructure(
            Backend(FREE),
            tuple(GroundElement(c) for c in "wxyz"),
            frozenset(colored),
            ALPHA_HALF,
        )

    def test_everything_closed(self):
        S = self._free({"x", "y"})
        assert in_k_plus(S)
        for ids in ([], ["w"], ["x"], ["w", "x", "y", "z"]):
            assert is_closed(ids, S)
            assert closure(ids, S) == frozenset(ids)

    def test_d_value_is_delta(self):
        S = self._free({"x"})
        assert compare(d_value(["x"], S), delta(S, ["x"]), S.alpha) == 0

    def test_no_minimal_pairs(self):
        S = self._free({"x", "y"})
        assert not is_minimal_pair(["w"], ["w", "x", "y"], S)
