import itertools
import math
import random
from fractions import Fraction as F

import pytest

from bicolor import colored
from bicolor.closure import closure
from bicolor.colored import (
    ColoredStructure,
    EmbeddingMap,
    certify_k_plus,
    delta,
    dependency_kernel,
    in_k_plus,
    is_lp_embedding,
    is_weak_iso,
    k_plus_violation,
    min_relative_delta,
    min_violating_witness,
)
from bicolor.construct import free_power_patch
from bicolor.errors import (
    BackendMismatch,
    InputError,
    InvariantError,
    SchemaError,
    SearchBudgetExceeded,
    UnknownElement,
)
from bicolor.exactnum import PreDimValue
from bicolor.pregeom import Backend, FREE, GroundElement, LINEAR, int_row
from bicolor.workbench import dumps, task_catalog

from conftest import (
    ALL_ALPHAS,
    ALPHA_HALF,
    ALPHA_INV_SQRT2,
    ALPHA_ONE,
    ALPHA_TWO_THIRDS,
    SEARCH_ALPHAS,
    SubsetTable,
    brute_components,
    brute_in_k_plus,
    random_dependent_structure,
    random_k_plus_structure,
    random_structure,
    submasks,
)
from test_pregeom import oracle_kernel, oracle_solve


def ge(eid, *coords):
    return GroundElement(eid, tuple(F(x) for x in coords))


def witness_structure(alpha=ALPHA_TWO_THIRDS):
    return ColoredStructure(
        Backend(LINEAR, 2),
        (ge("a", 1, 0), ge("b1", 0, 1), ge("b2", 1, 1)),
        frozenset({"b1", "b2"}),
        alpha,
    )


class TestStructureValidation:
    def test_duplicate_ids(self):
        with pytest.raises(SchemaError):
            ColoredStructure(
                Backend(LINEAR, 1), (ge("a", 1), ge("a", 2)), frozenset(), ALPHA_ONE
            )

    def test_zero_vector_forbidden(self):
        with pytest.raises(SchemaError):
            ColoredStructure(Backend(LINEAR, 2), (ge("a", 0, 0),), frozenset(), ALPHA_ONE)

    def test_colored_subset(self):
        with pytest.raises(SchemaError):
            ColoredStructure(
                Backend(LINEAR, 1), (ge("a", 1),), frozenset({"ghost"}), ALPHA_ONE
            )

    def test_free_payload_forbidden(self):
        with pytest.raises(SchemaError):
            ColoredStructure(Backend(FREE), (ge("a", 1),), frozenset(), ALPHA_ONE)

    def test_canonical_order(self):
        S = ColoredStructure(
            Backend(LINEAR, 1), (ge("z", 1), ge("a", 2)), frozenset(), ALPHA_ONE
        )
        assert S.ids_sorted == ("a", "z")


class TestDelta:
    def test_empty(self):
        S = witness_structure()
        assert delta(S, []) == PreDimValue(0, 0)

    def test_absolute(self):
        S = witness_structure()
        assert delta(S, ["a", "b1", "b2"]) == PreDimValue(2, 2)

    def test_relative(self):
        S = witness_structure()
        assert delta(S, ["b1", "b2"], ["a"]) == PreDimValue(1, 2)

    def test_unknown_id(self):
        with pytest.raises(UnknownElement):
            delta(witness_structure(), ["zz"])

    def test_free_backend(self):
        S = ColoredStructure(
            Backend(FREE),
            (GroundElement("x"), GroundElement("y")),
            frozenset({"y"}),
            ALPHA_ONE,
        )
        assert delta(S, ["x", "y"]) == PreDimValue(2, 1)


class TestKPlus:
    def test_all_plain(self):
        S = ColoredStructure(
            Backend(LINEAR, 2), (ge("a", 1, 0), ge("b", 2, 0)), frozenset(), ALPHA_ONE
        )
        assert in_k_plus(S)

    def test_parallel_colored_pair(self):
        S = ColoredStructure(
            Backend(LINEAR, 2),
            (ge("x", 0, 1), ge("y", 0, 2)),
            frozenset({"x", "y"}),
            ALPHA_TWO_THIRDS,
        )
        assert not in_k_plus(S)
        assert k_plus_violation(S) == {"x", "y"}

    def test_witness_structure(self):
        assert in_k_plus(witness_structure())

    def test_oracle_equivalence(self, rng):
        for i in range(120):
            S = random_structure(rng, ALL_ALPHAS[i % 4], max_n=7, max_dim=4)
            assert in_k_plus(S) == brute_in_k_plus(S)

    def test_min_relative_delta_matches_table(self, rng):
        for i in range(80):
            S = random_structure(rng, ALL_ALPHAS[i % 4], max_n=7, max_dim=4)
            t = SubsetTable(S)
            x_mask = rng.randrange(1 << t.n) if t.n else 0
            x = t.ids_of(x_mask)
            got, attained = min_relative_delta(S, x)
            assert delta(S, attained, x) == got
            rest = (~x_mask) & ((1 << t.n) - 1)
            best = (0, 0)
            sub = rest
            while True:
                pair = t.delta_pair(sub, x_mask)
                d, c = pair[0] - best[0], pair[1] - best[1]
                if t._sign(d, c) < 0:
                    best = pair
                if sub == 0:
                    break
                sub = (sub - 1) & rest
            assert (got.dim_part, got.color_part) == best or t._sign(
                got.dim_part - best[0], got.color_part - best[1]
            ) == 0

    def test_min_witness_shape(self, rng):
        # smallest size, then lexicographic on sorted ids
        for i in range(60):
            S = random_structure(rng, ALL_ALPHAS[i % 4], max_n=6, max_dim=3, color_p=0.7)
            t = SubsetTable(S)
            w = min_violating_witness(S, ())
            brute = None
            for mask in sorted(
                range(1, 1 << t.n),
                key=lambda m: (bin(m).count("1"), tuple(sorted(t.ids_of(m)))),
            ):
                if t.delta_sign(mask) < 0:
                    brute = t.ids_of(mask)
                    break
            assert w == brute


def _least_violator(t, x_mask):
    """The (size, lex)-least mask A outside x_mask with delta(A/X) < 0 in
    the table, or None."""
    violators = [m for m in range(1, 1 << t.n) if not m & x_mask and t.delta_sign(m, x_mask) < 0]
    return min(
        violators, key=lambda m: (bin(m).count("1"), tuple(sorted(t.ids_of(m)))), default=None
    )


def test_min_witness_over_nonempty_base_matches_table(rng):
    """min_violating_witness(S, X) with X nonempty is the brute-force table's
    (size, lex)-least violator over X, on structures of up to ten points."""
    sizes = []
    for i in range(200):
        S = random_structure(rng, ALL_ALPHAS[i % 4], max_n=10, max_dim=6, color_p=0.7)
        t = SubsetTable(S)
        if not t.n:
            continue
        x_mask = t.mask_of(rng.sample(t.ids, rng.randint(1, 1 + t.n // 4)))
        brute = _least_violator(t, x_mask)
        got = min_violating_witness(S, t.ids_of(x_mask))
        assert got == (None if brute is None else t.ids_of(brute))
        sizes.append(0 if got is None else len(got))
    # closed bases, zero-residual singletons and walked components all occur
    assert sizes.count(0) >= 40 and sizes.count(1) >= 20 and sum(w >= 2 for w in sizes) >= 30


def test_min_witness_tie_goes_to_the_later_component():
    """Two components each hold a violator of the least size, two; the
    lex-least one is in the component searched second."""
    S = ColoredStructure(
        Backend(LINEAR, 4),
        (
            ge("a", 1, 0, 0, 0), ge("w", 1, 1, 0, 0), ge("y", 0, 1, 0, 0), ge("z", 0, 2, 0, 0),
            ge("b", 0, 0, 1, 0), ge("c", 0, 0, 2, 0), ge("x", 0, 0, 0, 1),
        ),
        frozenset({"a", "w", "y", "z", "b", "c"}),
        ALPHA_TWO_THIRDS,
    )
    assert colored.colored_components(S, ["x"]) == ([], [["a", "w", "y", "z"], ["b", "c"]])
    assert min_violating_witness(S, ["x"]) == {"b", "c"}
    t = SubsetTable(S)
    assert t.ids_of(_least_violator(t, t.mask_of(["x"]))) == {"b", "c"}


def test_exhausted_witness_budget_names_the_search():
    S = witness_structure()
    with pytest.raises(SearchBudgetExceeded) as err:
        min_violating_witness(S, ["a"], node_budget=1)
    assert str(err.value) == (
        "exact search node budget of 1 exhausted in min_violating_witness over a 2-point component"
    )
    with pytest.raises(SearchBudgetExceeded, match="in min_relative_delta over a 1-point component"):
        min_relative_delta(S, [], node_budget=1)


class TestKPlusCertificate:
    @staticmethod
    def _count_searches(monkeypatch):
        calls = []
        original = colored.min_relative_delta

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(colored, "min_relative_delta", counting)
        return calls

    @pytest.mark.parametrize("how", ["certified", "searched"])
    def test_restrictions_inherit_without_search(self, monkeypatch, how):
        S = witness_structure()
        if how == "certified":
            certify_k_plus(S)
        else:
            assert in_k_plus(S)

        def no_search(*args, **kwargs):
            raise AssertionError("in_k_plus searched a certified restriction")

        monkeypatch.setattr(colored, "min_relative_delta", no_search)
        sub = S.restrict(["b1", "b2"])
        assert in_k_plus(sub)
        assert in_k_plus(sub.restrict(["b2"]))
        assert k_plus_violation(sub) is None

    def test_uncertified_restriction_searches(self, monkeypatch):
        calls = self._count_searches(monkeypatch)
        sub = witness_structure().restrict(["b1", "b2"])
        assert in_k_plus(sub)
        assert len(calls) == 1

    def test_negative_verdict_not_inherited(self, monkeypatch):
        S = ColoredStructure(
            Backend(LINEAR, 2),
            (ge("p", 1, 0), ge("x", 0, 1), ge("y", 0, 2)),
            frozenset({"x", "y"}),
            ALPHA_TWO_THIRDS,
        )
        assert not in_k_plus(S)
        calls = self._count_searches(monkeypatch)
        assert in_k_plus(S.restrict(["p", "x"]))
        assert not in_k_plus(S.restrict(["x", "y"]))
        assert len(calls) == 2

    def test_certifying_a_negative_structure_fails(self):
        S = ColoredStructure(
            Backend(LINEAR, 2),
            (ge("x", 0, 1), ge("y", 0, 2)),
            frozenset({"x", "y"}),
            ALPHA_TWO_THIRDS,
        )
        assert not in_k_plus(S)
        with pytest.raises(InvariantError):
            certify_k_plus(S)


class TestEmptySetFromKPlusVerdict:
    """With a recorded K+ verdict, X = {} is closed and min delta(A/{}) is 0."""

    @staticmethod
    def _forbid_search(monkeypatch):
        def searched(*args, **kwargs):
            raise AssertionError("searched")

        monkeypatch.setattr(colored, "colored_components", searched)
        monkeypatch.setattr(colored, "_component_min", searched)

    def test_power_patch_closure_answers_without_search(self, monkeypatch):
        base = ColoredStructure(Backend(LINEAR, 1), (ge("b", 1),), frozenset(), ALPHA_INV_SQRT2)
        S = free_power_patch([], ["b"], F(1, 2), 2, base).structure
        assert len(S) == 25
        self._forbid_search(monkeypatch)
        assert closure([], S) == frozenset()
        assert min_violating_witness(S, []) is None
        assert min_relative_delta(S, []) == (PreDimValue(0, 0), frozenset())
        with pytest.raises(AssertionError, match="searched"):
            min_violating_witness(S, ["b"])

    @pytest.mark.parametrize("query", [min_violating_witness, min_relative_delta])
    def test_uncertified_structure_searches(self, monkeypatch, query):
        S = witness_structure()
        self._forbid_search(monkeypatch)
        with pytest.raises(AssertionError, match="searched"):
            query(S, [])

    def test_answers_match_the_search(self):
        rng = random.Random(0xE5)
        for i in range(120):
            S = random_structure(rng, ALL_ALPHAS[i % 4], max_n=7, max_dim=4)
            searched = (min_violating_witness(S, []), min_relative_delta(S, []))
            if in_k_plus(S):
                assert (min_violating_witness(S, []), min_relative_delta(S, [])) == searched



class TestAdditivitySubmodularity:
    def test_additivity_exact_pairs(self, rng):
        for i in range(150):
            S = random_structure(rng, ALL_ALPHAS[i % 4], max_n=8, max_dim=5)
            ids = list(S.ids_sorted)
            rng.shuffle(ids)
            a = frozenset(ids[: rng.randint(0, len(ids))])
            b = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
            c = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
            left = delta(S, a | b, c)
            right = delta(S, a, b | c) + delta(S, b, c)
            # identical as exact pairs up to the overlap convention:
            # delta(AB/C) = delta(A/BC) + delta(B/C) with A, B disjoint from C
            a2 = a - b - c
            b2 = b - c
            assert delta(S, a2 | b2, c) == delta(S, a2, b2 | c) + delta(S, b2, c)

    def test_submodularity(self, rng):
        for i in range(150):
            S = random_structure(rng, ALL_ALPHAS[i % 4], max_n=8, max_dim=5)
            ids = list(S.ids_sorted)
            a = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
            b = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
            lhs = delta(S, a | b) + delta(S, a & b)
            rhs = delta(S, a) + delta(S, b)
            assert (rhs - lhs).sign(S.alpha) >= 0


class TestEmbeddings:
    def test_identity(self):
        S = witness_structure()
        f = EmbeddingMap.identity(S.id_set)
        assert is_lp_embedding(f, S, S)

    def test_scaling_is_embedding(self):
        S = ColoredStructure(
            Backend(LINEAR, 1), (ge("a", 1),), frozenset({"a"}), ALPHA_ONE
        )
        T = ColoredStructure(
            Backend(LINEAR, 1), (ge("b", 2),), frozenset({"b"}), ALPHA_ONE
        )
        assert is_lp_embedding(EmbeddingMap.of({"a": "b"}), S, T)

    def test_dependency_gained_fails(self):
        S = ColoredStructure(
            Backend(LINEAR, 2), (ge("x", 1, 0), ge("y", 0, 1)), frozenset(), ALPHA_ONE
        )
        T = ColoredStructure(
            Backend(LINEAR, 2), (ge("u", 1, 0), ge("v", 2, 0)), frozenset(), ALPHA_ONE
        )
        assert not is_lp_embedding(EmbeddingMap.of({"x": "u", "y": "v"}), S, T)

    def test_color_clash_fails(self):
        S = ColoredStructure(Backend(LINEAR, 1), (ge("a", 1),), frozenset({"a"}), ALPHA_ONE)
        T = ColoredStructure(Backend(LINEAR, 1), (ge("b", 1),), frozenset(), ALPHA_ONE)
        assert not is_lp_embedding(EmbeddingMap.of({"a": "b"}), S, T)

    def test_backend_mismatch(self):
        S = ColoredStructure(Backend(LINEAR, 1), (ge("a", 1),), frozenset(), ALPHA_ONE)
        T = ColoredStructure(Backend(FREE), (GroundElement("b"),), frozenset(), ALPHA_ONE)
        with pytest.raises(BackendMismatch):
            is_lp_embedding(EmbeddingMap.of({"a": "b"}), S, T)

    def test_must_be_total(self):
        S = witness_structure()
        with pytest.raises(InputError):
            is_lp_embedding(EmbeddingMap.of({"a": "a"}), S, S)

    def test_delta_invariant_under_embeddings(self, rng):
        # images under a verified embedding have the same pre-dimension
        for i in range(60):
            S = random_structure(rng, ALL_ALPHAS[i % 4], max_n=5, max_dim=3)
            scale = rng.choice([1, 2, 3])
            mapping = {}
            elements = []
            for e in S.elements:
                nid = "m_" + e.id
                mapping[e.id] = nid
                elements.append(GroundElement(nid, tuple(x * scale for x in e.vec)))
            T = ColoredStructure(
                S.backend,
                tuple(elements),
                frozenset(mapping[i] for i in S.colored),
                S.alpha,
            )
            f = EmbeddingMap.of(mapping)
            assert is_lp_embedding(f, S, T)
            ids = rng.sample(list(S.ids_sorted), rng.randint(0, len(S)))
            assert delta(S, ids) == delta(T, [mapping[i] for i in ids])


class TestWeakIso:
    def test_identity(self):
        S = witness_structure()
        assert is_weak_iso(EmbeddingMap.identity(S.id_set), S, S)

    def test_colored_singletons(self):
        S = ColoredStructure(Backend(LINEAR, 1), (ge("x", 1),), frozenset({"x"}), ALPHA_ONE)
        T = ColoredStructure(Backend(LINEAR, 1), (ge("y", 3),), frozenset({"y"}), ALPHA_ONE)
        assert is_weak_iso(EmbeddingMap.of({"x": "y"}), S, T)

    def test_color_clash_on_domain(self):
        S = ColoredStructure(Backend(LINEAR, 1), (ge("x", 1),), frozenset({"x"}), ALPHA_ONE)
        T = ColoredStructure(Backend(LINEAR, 1), (ge("y", 1),), frozenset(), ALPHA_ONE)
        assert not is_weak_iso(EmbeddingMap.of({"x": "y"}), S, T)

    def test_colors_off_domain_unconstrained(self):
        S = ColoredStructure(
            Backend(LINEAR, 1), (ge("x", 1), ge("z", 2)), frozenset(), ALPHA_ONE
        )
        T = ColoredStructure(
            Backend(LINEAR, 1), (ge("y", 1), ge("w", 2)), frozenset({"w"}), ALPHA_ONE
        )
        assert is_weak_iso(EmbeddingMap.of({"x": "y"}), S, T)

    def test_trace_mismatch(self):
        S = ColoredStructure(
            Backend(LINEAR, 1), (ge("x", 1), ge("z", 2)), frozenset(), ALPHA_ONE
        )
        T = ColoredStructure(Backend(LINEAR, 1), (ge("y", 1),), frozenset(), ALPHA_ONE)
        assert not is_weak_iso(EmbeddingMap.of({"x": "y"}), S, T)


def _weak_iso_reference(f, S, T):
    """Weak isomorphism by Fraction Gauss-Jordan: colors agree on the
    domain X, X and f(X) have the same dependency kernel, and the images
    sum_j c_j f(x_j) of S's trace points (c solved over X) are T's trace
    points, as multisets."""
    x = sorted(f.domain)
    xs = [S.element(i).vec for i in x]
    ys = [T.element(f.mapping[i]).vec for i in x]
    if any(S.is_colored(i) != T.is_colored(f.mapping[i]) for i in x):
        return False
    if oracle_kernel(xs) != oracle_kernel(ys):
        return False
    dim = T.backend.ambient_dim
    images = []
    for e in S.elements:
        c = oracle_solve(xs, e.vec)
        if c is not None:
            images.append(tuple(sum((cj * y[r] for cj, y in zip(c, ys)), F(0)) for r in range(dim)))
    trace = [e.vec for e in T.elements if oracle_solve(ys, e.vec) is not None]
    return sorted(images) == sorted(trace)


def test_weak_iso_matches_fraction_reference():
    """is_weak_iso on structures with repeated, scaled and combined points,
    against a copy under an invertible linear map, renamed, sometimes with
    one point moved, over random domains mapped to their partners or
    shuffled ones."""
    rng = random.Random(0x15A)
    seen = {True: 0, False: 0}
    for i in range(150):
        dim = rng.randint(1, 3)
        S = random_dependent_structure(rng, ALL_ALPHAS[i % 4], rng.randint(1, 6), dim)
        while True:
            A = [[F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(dim)] for _ in range(dim)]
            if dependency_kernel([tuple(r) for r in A]) == ():
                break
        image = lambda v: tuple(sum((a * x for a, x in zip(row, v)), F(0)) for row in A)
        vecs = {f"t{e.id}": image(e.vec) for e in S.elements}
        if rng.random() < 0.3:
            vecs[rng.choice(sorted(vecs))] = tuple(F(rng.randint(1, 3)) for _ in range(dim))
        T = ColoredStructure(
            Backend(LINEAR, dim),
            tuple(GroundElement(eid, v) for eid, v in vecs.items()),
            frozenset(f"t{c}" for c in S.colored),
            S.alpha,
        )
        x = rng.sample(S.ids_sorted, rng.randint(0, len(S)))
        targets = [f"t{i}" for i in x]
        if rng.random() < 0.3:
            targets = rng.sample(T.ids_sorted, len(x))
        f = EmbeddingMap(tuple(zip(x, targets)))
        want = _weak_iso_reference(f, S, T)
        assert is_weak_iso(f, S, T) == want
        seen[want] += 1
    assert seen[True] >= 40 and seen[False] >= 20, seen


class TestRenamed:
    """`renamed` is the old rebuild from payload vectors, plus the integer
    payloads, the K+ verdict and the closed sets of the memo."""

    @staticmethod
    def _rebuilt(S, mapping):
        """The structure rebuilt from renamed elements, as the builder made
        its task copies before `renamed`: the reference for the bytes."""
        elements = tuple(GroundElement(mapping.get(e.id, e.id), e.vec) for e in S.elements)
        colored_ids = frozenset(mapping.get(i, i) for i in S.colored)
        return ColoredStructure(S.backend, elements, colored_ids, S.alpha)

    def test_bytes_and_payloads_match_the_rebuild(self, rng):
        cases = [random_dependent_structure(rng, ALL_ALPHAS[i % 4], rng.randint(0, 6), 3) for i in range(30)]
        cases += [t.big for alpha in ALL_ALPHAS for t in task_catalog(alpha, 5)]
        cases.append(ColoredStructure(Backend(FREE), (GroundElement("x"), GroundElement("y")), {"y"}, ALPHA_HALF))
        for S in cases:
            ids = S.ids_sorted
            mapping = {eid: f"r{len(ids) - j}" for j, eid in enumerate(ids) if rng.random() < 0.6}
            R = S.renamed(mapping)
            assert dumps(R) == dumps(self._rebuilt(S, mapping))
            assert R == self._rebuilt(S, mapping)
            for eid in ids:
                assert S.backend.kind == FREE or R.payload(mapping.get(eid, eid)) is S.payload(eid)

    def test_verdict_and_closed_sets_are_carried(self):
        """Every subset of a K+ structure asked: under a renaming that
        reverses id order, the closed answers arrive renamed, the
        violators do not, and the carried answers hold by brute force."""
        rng = random.Random(0xC0)
        carried = dropped = 0
        for i in range(12):
            S = random_k_plus_structure(rng, ALL_ALPHAS[i % 4], max_n=7, max_dim=4, color_p=0.6)
            while len(S) < 5:
                S = random_k_plus_structure(rng, ALL_ALPHAS[i % 4], max_n=7, max_dim=4, color_p=0.6)
            in_k_plus(S)
            ids = S.ids_sorted
            subsets = [frozenset(c) for r in range(len(ids) + 1) for c in itertools.combinations(ids, r)]
            for x in subsets:
                min_violating_witness(S, x)
            rev = {eid: f"z{len(ids) - j:02d}" for j, eid in enumerate(ids)}
            R = S.renamed(rev)
            assert R._k_plus is True
            rename = lambda xs: frozenset(rev[i] for i in xs)
            assert R._witnesses == {rename(x): None for x, v in S._witnesses.items() if v is None}
            t = SubsetTable(R)
            for x in R._witnesses:
                assert _least_violator(t, t.mask_of(x)) is None
            carried += len(R._witnesses)
            dropped += len(S._witnesses) - len(R._witnesses)
        assert carried >= 100 and dropped >= 100, (carried, dropped)

    def test_negative_verdict_is_carried(self):
        S = ColoredStructure(
            Backend(LINEAR, 1), (ge("x", 1), ge("y", 2)), frozenset({"x", "y"}), ALPHA_TWO_THIRDS
        )
        assert not in_k_plus(S)
        R = S.renamed({"x": "w"})
        assert R._k_plus is False and k_plus_violation(R) == {"w", "y"}

    def test_a_structure_without_a_verdict_carries_none(self):
        S = witness_structure()
        R = S.renamed({"a": "z"})
        assert S._k_plus is None and R._k_plus is None and R._witnesses == {}
        assert in_k_plus(R) and min_violating_witness(R, ["z"]) == {"b1", "b2"}


class TestDependencyKernel:
    def test_kernel_of_parallel_pair(self):
        k = dependency_kernel([(F(1), F(0)), (F(2), F(0))])
        assert k == ((F(-2), F(1)),)

    def test_kernel_empty_for_independents(self):
        assert dependency_kernel([(F(1), F(0)), (F(0), F(1))]) == ()


class TestAmbientWidening:
    def test_padding_preserves_all_ranks(self, rng):
        for i in range(40):
            S = random_structure(rng, ALL_ALPHAS[i % 4], max_n=6, max_dim=3)
            wide = S.extended([], widen_by=2)
            assert wide.backend.ambient_dim == S.backend.ambient_dim + 2
            ids = list(S.ids_sorted)
            a = rng.sample(ids, rng.randint(0, len(ids)))
            x = rng.sample(ids, rng.randint(0, len(ids)))
            assert delta(S, a, x) == delta(wide, a, x)

    def test_carried_rows_are_the_cleared_payloads(self):
        """Random chains of `extended` (widening or not) and `restrict` over
        non-integer payloads: every integer payload (m, row) has m the lcm
        of the payload's denominators and row / m the payload, a kept point
        keeps its multiplier, and a restriction or an unwidened extension
        hands on the kept points' rows themselves."""
        rng = random.Random(0x1E0)
        payload = lambda dim: tuple(F(rng.randint(-5, 5), rng.choice([1, 2, 3, 6, 7])) for _ in range(dim))
        widened = carried = 0
        for i in range(40):
            S = random_structure(rng, ALL_ALPHAS[i % 4], max_n=5, max_dim=3)
            S = S.extended([], widen_by=0)
            for step in range(8):
                if S.ids_sorted and rng.random() < 0.4:
                    T = S.restrict(rng.sample(S.ids_sorted, rng.randint(0, len(S))))
                else:
                    widen = rng.choice([0, 0, 1, 2])
                    dim = S.backend.ambient_dim + widen
                    new = []
                    for k in range(rng.randint(0, 2)):
                        vec = payload(dim)
                        if any(vec):
                            new.append(GroundElement(f"n{i}_{step}_{k}", vec))
                    colored_ids = [g.id for g in new if rng.random() < 0.5]
                    T = S.extended(new, new_colored=colored_ids, widen_by=widen)
                    widened += widen > 0
                for e in T.elements:
                    m, row = T.payload(e.id)
                    assert m == math.lcm(*(x.denominator for x in e.vec))
                    assert tuple(F(x, m) for x in row) == e.vec
                    assert T.introw(e.id) is row and row == int_row(e.vec)
                    if e.id in S.id_set:
                        assert m == S.payload(e.id)[0]
                    if e.id in S.id_set and T.backend == S.backend:
                        assert T.introw(e.id) is S.introw(e.id)
                        carried += 1
                S = T
        assert widened >= 20 and carried >= 100

    def test_free_backend_weak_iso(self):
        S = ColoredStructure(
            Backend(FREE),
            (GroundElement("x"), GroundElement("y")),
            frozenset({"x"}),
            ALPHA_ONE,
        )
        T = ColoredStructure(
            Backend(FREE),
            (GroundElement("u"), GroundElement("v")),
            frozenset({"u", "v"}),
            ALPHA_ONE,
        )
        assert is_weak_iso(EmbeddingMap.of({"x": "u"}), S, T)
        assert not is_weak_iso(EmbeddingMap.of({"y": "u"}), S, T)


def test_subset_table_matches_fraction_ranks():
    """The oracle table's incremental fraction-free dims equal Fraction
    Gauss-Jordan ranks, on structures drawn as criterion 2 draws them."""
    rng = random.Random(102)
    for i in range(120):
        S = random_structure(rng, ALL_ALPHAS[i % 4], max_n=8, max_dim=5, color_p=0.4)
        t = SubsetTable(S)
        assert t.dim == t.fraction_ranks()
        assert t.col == [len(t.ids_of(m) & S.colored) for m in range(1 << t.n)]


def test_k_plus_oracle_up_to_ten(rng):
    # larger-scale oracle equivalence: structures with up to 10 elements
    for i in range(12):
        S = random_structure(rng, ALL_ALPHAS[i % 4], max_n=10, max_dim=5)
        assert in_k_plus(S) == brute_in_k_plus(S)


def _component_case(seed, n, dim, nx, alpha):
    """n points with entries in [-1, 2] drawn from Random(seed); the first nx
    are plain and form X, the rest are colored."""
    rng = random.Random(seed)
    elements = []
    for i in range(n):
        vec = ()
        while not any(vec):
            vec = tuple(F(rng.randint(-1, 2)) for _ in range(dim))
        elements.append(GroundElement(f"e{i}", vec))
    colored_ids = frozenset(f"e{i}" for i in range(nx, n))
    S = ColoredStructure(Backend(LINEAR, dim), tuple(elements), colored_ids, alpha)
    return S, [f"e{i}" for i in range(nx)]


# (seed, n, dim, nx, alpha) -> per component over X: (size, dim part, color
# part, witness, budget left of 10 000).
COMPONENT_PINS = [
    ((1, 6, 4, 1, ALPHA_TWO_THIRDS), [(4, 2, 4, "e1,e2,e3,e5", 9991), (1, 0, 0, "", 9999)]),
    ((15, 6, 4, 1, ALPHA_INV_SQRT2), [(2, 1, 2, "e2,e5", 9995), (1, 0, 0, "", 9999), (1, 0, 0, "", 9999)]),
    ((61, 6, 4, 1, ALPHA_INV_SQRT2), [(2, 1, 2, "e1,e2", 9995), (3, 2, 3, "e3,e4,e5", 9991)]),
    ((96, 6, 4, 1, ALPHA_TWO_THIRDS), [(5, 1, 2, "e1,e2", 9981)]),
    ((14, 6, 4, 1, ALPHA_INV_SQRT2), [(4, 0, 0, "", 9985)]),
    ((13, 9, 8, 1, ALPHA_INV_SQRT2), [(6, 0, 0, "", 9967), (1, 0, 0, "", 9999), (1, 0, 0, "", 9999)]),
    ((48, 10, 7, 2, ALPHA_INV_SQRT2), [(7, 0, 0, "", 9883)]),
    ((227, 10, 7, 2, ALPHA_HALF), [(7, 0, 0, "", 9949), (1, 0, 0, "", 9999)]),
    ((199, 9, 6, 1, ALPHA_TWO_THIRDS), [(8, 5, 8, "e1,e2,e3,e4,e5,e6,e7,e8", 9919)]),
    ((5, 9, 6, 1, ALPHA_INV_SQRT2), [(8, 5, 8, "e1,e2,e3,e4,e5,e6,e7,e8", 9873)]),
    ((5, 9, 6, 1, ALPHA_TWO_THIRDS), [(8, 5, 8, "e1,e2,e3,e4,e5,e6,e7,e8", 9873)]),
]


@pytest.mark.parametrize("case,expected", COMPONENT_PINS)
def test_component_min_pinned(case, expected):
    """The component search's value, witness and nodes spent stay fixed."""
    S, x = _component_case(*case)
    _, comps = colored.colored_components(S, x)
    got = []
    for comp in comps:
        counter = colored._BudgetCounter(10_000)
        v, w = colored._component_min(comp, S.alpha, counter)
        got.append((len(comp), v.dim_part, v.color_part, ",".join(sorted(w)), counter.left))
    assert got == expected


def _circuit_case(seed, n, dim, nx, alpha):
    """n sparse points with fractional entries drawn from Random(seed), some
    of them scaled repeats or combinations of earlier points; about 70 % are
    colored, and X is nx of them drawn at random."""
    rng = random.Random(seed)
    vecs = []
    for _ in range(n):
        pick = rng.random()
        if vecs and pick < 0.2:
            vec = tuple(x * rng.choice([1, -1, F(1, 2), 3]) for x in rng.choice(vecs))
        elif len(vecs) > 1 and pick < 0.4:
            a, b = rng.sample(vecs, 2)
            c = F(rng.randint(-2, 2), rng.randint(1, 3)) or F(1)
            vec = tuple(x + c * y for x, y in zip(a, b))
        else:
            vec = ()
        while not any(vec):
            vec = tuple(
                F(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.4 else F(0)
                for _ in range(dim)
            )
        vecs.append(vec)
    elements = tuple(GroundElement(f"e{i}", v) for i, v in enumerate(vecs))
    colored_ids = frozenset(f"e{i}" for i in range(n) if rng.random() < 0.7)
    S = ColoredStructure(Backend(LINEAR, dim), elements, colored_ids, alpha)
    return S, [f"e{i}" for i in rng.sample(range(n), nx)]


# (seed, n, dim, nx, alpha) -> (zero-residual drops, components joined by ",").
CIRCUIT_PINS = [
    ((1, 8, 5, 0, ALPHA_HALF), ([], ["e0", "e1", "e3"])),
    ((1, 9, 5, 2, ALPHA_TWO_THIRDS), (["e7"], ["e0,e1,e3,e8", "e2"])),
    ((1, 10, 6, 1, ALPHA_INV_SQRT2), ([], ["e0,e5,e6,e7,e9", "e1", "e2,e4"])),
    ((2, 9, 5, 2, ALPHA_HALF), (["e0", "e2", "e5"], ["e6"])),
    ((2, 10, 6, 1, ALPHA_TWO_THIRDS), (["e9"], ["e1,e2", "e5,e8"])),
    ((3, 8, 5, 0, ALPHA_INV_SQRT2), ([], ["e1,e2,e3,e4,e5,e6,e7"])),
    ((4, 10, 6, 1, ALPHA_ONE), ([], ["e0,e1,e7", "e2,e5", "e6", "e9"])),
    ((8, 8, 5, 0, ALPHA_TWO_THIRDS), ([], ["e0,e2,e3,e4", "e1", "e6,e7"])),
    ((11, 10, 6, 1, ALPHA_HALF), (["e5"], ["e3", "e6", "e8", "e9"])),
    ((12, 8, 5, 0, ALPHA_TWO_THIRDS), ([], ["e0,e2,e3,e6", "e1,e7", "e4", "e5"])),
    ((15, 9, 5, 2, ALPHA_ONE), (["e4", "e5"], ["e1", "e6,e8"])),
    ((19, 8, 5, 0, ALPHA_INV_SQRT2), ([], ["e0,e2", "e1,e6", "e3", "e4", "e7"])),
    ((19, 9, 5, 2, ALPHA_ONE), (["e5"], ["e0,e2", "e3", "e4", "e7,e8"])),
    ((22, 10, 6, 1, ALPHA_TWO_THIRDS), (["e2"], ["e0,e3,e4,e5,e6,e8,e9"])),
]


@pytest.mark.parametrize("case,expected", CIRCUIT_PINS)
def test_colored_components_pinned(case, expected):
    """Drops and components over X stay fixed on structures with fractional
    payloads, repeated and dependent points, and X empty or not."""
    S, x = _circuit_case(*case)
    drops, comps = colored.colored_components(S, x)
    assert (drops, [",".join(c) for c in comps]) == expected


def test_exhausted_budget_is_named():
    # the error code (exit code 2 in the CLI) stays; the message names the budget
    with pytest.raises(SearchBudgetExceeded, match="node budget of 1 exhausted") as err:
        min_relative_delta(witness_structure(), [], node_budget=1)
    assert isinstance(err.value, InvariantError) and err.value.code == "SearchBudgetExceeded"


def _search_cases(seed, count, max_n):
    """(S, X, table) on random structures of 4 .. max_n points with
    dependent, parallel and repeated payloads, about half of them colored,
    X empty in a quarter of the cases, cycling through SEARCH_ALPHAS."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(4, max_n)
        S = random_dependent_structure(rng, SEARCH_ALPHAS[k % 4], n, rng.randint(2, 6), 0.6)
        x = rng.sample(S.ids_sorted, rng.randint(0, 3) if k % 4 else 0)
        yield S, x, SubsetTable(S)


def _first_minimizers(t, x_mask):
    """The oracle of `min_relative_delta`: the least (dim, colored) pair of
    delta(A/X) and its witness mask, the zero-residual colored points plus,
    per component (`brute_components`), the first subset in lex order of
    sorted indices that attains the component's least delta over X, or the
    empty set when that least delta is 0."""
    loops, comps = brute_components(t, x_mask)
    total, witness = [0, bin(loops).count("1")], loops
    for comp in comps:
        idx = [j for j in range(t.n) if comp >> j & 1]
        best, best_mask = (0, 0), 0
        for c in sorted(itertools.chain.from_iterable(
            itertools.combinations(idx, r) for r in range(len(idx) + 1)
        )):
            m = sum(1 << j for j in c)
            pair = t.delta_pair(m, x_mask)
            if t._sign(pair[0] - best[0], pair[1] - best[1]) < 0:
                best, best_mask = pair, m
        total = [total[0] + best[0], total[1] + best[1]]
        witness |= best_mask
    return PreDimValue(*total), witness


def test_searches_match_subset_table():
    """min_relative_delta's value and witness and min_violating_witness
    against the brute-force table, over X empty or not, on structures of up
    to twelve points at alpha = 1/2, 2/3, 1/sqrt(2) and (sqrt(5) - 1)/2."""
    sizes = []
    for S, x, t in _search_cases(0x5EA, 160, 12):
        x_mask = t.mask_of(x)
        loops, comps = brute_components(t, x_mask)
        drops, got_comps = colored.colored_components(S, x)
        assert (t.mask_of(drops), [t.mask_of(c) for c in got_comps]) == (loops, comps)
        value, witness = _first_minimizers(t, x_mask)
        assert min_relative_delta(S, x) == (value, t.ids_of(witness))
        brute = _least_violator(t, x_mask)
        got = min_violating_witness(S, x)
        assert got == (None if brute is None else t.ids_of(brute))
        sizes.append((len(got) if got else 0, max(map(len, got_comps), default=0)))
    # closed sets, single-point and larger violators, and components of
    # eight or more points all occur
    assert sum(w == 0 for w, _ in sizes) >= 20 and sum(w == 1 for w, _ in sizes) >= 20
    assert sum(w >= 2 for w, _ in sizes) >= 20 and sum(c >= 8 for _, c in sizes) >= 10


@pytest.mark.parametrize("alpha", SEARCH_ALPHAS + [ALPHA_ONE])
def test_suffix_rank_bound(alpha):
    """The colored module's lemma, node by node: for the points q_0 < ... <
    q_{n-1} outside X, every i and every C within q[:i], the least
    delta(C u T / X) over T within q[i:] is >= delta(C / X) - alpha * rho,
    rho = (n - i) - max(R_n - R_i, S_i - dim(C / X)), all read off the
    table.  Plain points are among the q's: they only raise delta."""
    rng = random.Random(repr(alpha))
    tight = 0
    for _ in range(25):
        S = random_dependent_structure(rng, alpha, rng.randint(3, 9), rng.randint(2, 5), 0.8)
        t = SubsetTable(S)
        x_mask = t.mask_of(rng.sample(S.ids_sorted, rng.randint(0, 2)))
        q = [j for j in range(t.n) if not x_mask >> j & 1]
        n = len(q)
        rank = lambda m: t.dim[m | x_mask] - t.dim[x_mask]
        for i in range(n + 1):
            head = sum(1 << j for j in q[:i])
            tail = sum(1 << j for j in q[i:])
            big_r, big_s = rank(head | tail) - rank(head), rank(tail)
            for c in submasks(head):
                dim_c, col_c = t.delta_pair(c, x_mask)
                rho = (n - i) - max(big_r, big_s - dim_c)
                signs = [
                    t._sign(d - dim_c, col - col_c - rho)
                    for d, col in (t.delta_pair(c | u, x_mask) for u in submasks(tail))
                ]
                assert min(signs) >= 0
                tight += min(signs) == 0 and rho > 0
    assert tight > 0  # the bound is attained
