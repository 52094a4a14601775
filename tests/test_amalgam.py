import hashlib
import itertools
from fractions import Fraction as F

import pytest

from bicolor import colored
from bicolor.amalgam import free_amalgam, verify_free, verify_strong
from bicolor.closure import closure, is_closed
from bicolor.colored import (
    ColoredStructure,
    EmbeddingMap,
    delta,
    in_k_plus,
    is_weak_iso,
    min_violating_witness,
    strong_extension,
)
from bicolor.errors import AlphaMismatch, MatchInvalid, NotClosed
from bicolor.exactnum import PreDimValue
from bicolor.pregeom import Backend, GroundElement, LINEAR, rank
from bicolor.report import canonical_dumps
from bicolor.workbench import dumps, task_catalog

from conftest import (
    ALL_ALPHAS,
    ALPHA_HALF,
    ALPHA_INV_SQRT2,
    ALPHA_ONE,
    SubsetTable,
    random_k_plus_structure,
)
from test_colored import _least_violator, ge, witness_structure


def point(eid, colored, alpha, val=1):
    return ColoredStructure(
        Backend(LINEAR, 1),
        (ge(eid, val),),
        frozenset({eid} if colored else ()),
        alpha,
    )


class TestVerifyHelpers:
    def test_identity_strong(self):
        S = witness_structure()
        assert verify_strong(EmbeddingMap.identity(S.id_set), S, S)

    def test_singleton_not_strong_in_witness(self):
        S = witness_structure()
        A = S.restrict(["a"])
        assert not verify_strong(EmbeddingMap.identity(["a"]), A, S)

    def test_empty_strong(self):
        S = witness_structure()
        empty = S.restrict([])
        assert verify_strong(EmbeddingMap(()), empty, S)

    def test_free_parts(self):
        S = witness_structure()
        assert verify_free(S, {"a", "b1"}, {"a"}, {"a"})  # part2 = base
        T = ColoredStructure(
            Backend(LINEAR, 2),
            (ge("x", 0, 1), ge("y", 0, 2)),
            frozenset(),
            ALPHA_ONE,
        )
        assert not verify_free(T, {"x"}, {"y"}, set())


class TestFreeAmalgam:
    def test_joint_embedding_two_colored_points(self):
        M1 = point("x", True, ALPHA_ONE)
        M2 = point("y", True, ALPHA_ONE)
        res = free_amalgam(M1, M2, [], [], EmbeddingMap(()))
        M = res.structure
        assert len(M) == 2
        assert rank(M.elements, M.backend) == 2
        assert delta(M, M.id_set) == PreDimValue(2, 2)
        assert all(c.passed for c in res.checks)

    def test_self_amalgam_is_identity(self):
        M0 = witness_structure()
        match = EmbeddingMap.identity(M0.id_set)
        res = free_amalgam(M0, M0, M0.id_set, M0.id_set, match)
        assert res.structure.id_set == M0.id_set
        assert is_weak_iso(res.left, M0, res.structure)

    def test_rank_identity_mixed(self):
        alpha = ALPHA_HALF
        M1 = ColoredStructure(
            Backend(LINEAR, 2),
            (ge("a", 1, 0), ge("b1", 0, 1), ge("b2", 1, 1)),
            frozenset({"b1", "b2"}),
            alpha,
        )
        M2 = ColoredStructure(
            Backend(LINEAR, 2),
            (ge("a", 1, 0), ge("c", 0, 1)),
            frozenset(),
            alpha,
        )
        match = EmbeddingMap.of({"a": "a"})
        res = free_amalgam(M1, M2, ["a"], ["a"], match)
        M = res.structure
        r = lambda T, ids: rank([T.element(i) for i in ids], T.backend)
        assert r(M, M.id_set) == r(M1, M1.id_set) + r(M2, M2.id_set) - r(M1, ["a"])

    def test_not_closed_rejected(self):
        S = witness_structure()
        other = point("q", False, S.alpha)
        with pytest.raises(NotClosed):
            free_amalgam(S, other.extended([]), ["a"], ["q"], EmbeddingMap.of({"a": "q"}))

    def test_alpha_mismatch(self):
        M1 = point("x", False, ALPHA_ONE)
        M2 = point("y", False, ALPHA_HALF)
        with pytest.raises(AlphaMismatch):
            free_amalgam(M1, M2, [], [], EmbeddingMap(()))

    def test_match_color_clash(self):
        M1 = point("x", True, ALPHA_ONE)
        M2 = point("y", False, ALPHA_ONE)
        with pytest.raises(MatchInvalid):
            free_amalgam(M1, M2, ["x"], ["y"], EmbeddingMap.of({"x": "y"}))

    def test_match_must_cover_base(self):
        M1 = point("x", False, ALPHA_ONE)
        M2 = point("y", False, ALPHA_ONE)
        with pytest.raises(MatchInvalid):
            free_amalgam(M1, M2, ["x"], ["y"], EmbeddingMap(()))

    def test_id_collision_prefixing(self):
        M1 = ColoredStructure(
            Backend(LINEAR, 1), (ge("p", 1), ge("q", 2)), frozenset(), ALPHA_ONE
        )
        M2 = ColoredStructure(
            Backend(LINEAR, 1), (ge("p", 1), ge("q", 3)), frozenset(), ALPHA_ONE
        )
        res = free_amalgam(M1, M2, ["p"], ["p"], EmbeddingMap.of({"p": "p"}))
        assert res.structure.id_set == {"p", "q", "R.q"}


def test_golden_bytes_over_a_base_with_non_integer_payloads():
    """One amalgam over a one-point base, its structure and checks pinned by
    sha256 prefix; both sides' coordinates are solved over non-unit bases."""
    M1 = ColoredStructure(
        Backend(LINEAR, 2),
        (ge("a", F(1, 2), F(1, 3)), ge("b1", 0, F(3, 4)), ge("b2", F(2, 5), F(-1, 7))),
        frozenset({"b1"}),
        ALPHA_INV_SQRT2,
    )
    M2 = ColoredStructure(
        Backend(LINEAR, 3),
        (
            ge("x", 3, F(1, 2), 0),
            ge("c", F(1, 3), 0, F(2, 9)),
            ge("d", 0, F(5, 2), -1),
            ge("e", F(1, 2), F(1, 3), F(1, 5)),
        ),
        frozenset({"c"}),
        ALPHA_INV_SQRT2,
    )
    res = free_amalgam(M1, M2, ["a"], ["x"], EmbeddingMap.of({"a": "x"}))
    assert res.structure.element("b2").vec == (F(4, 5), F(-172, 315), 0, 0)
    blob = dumps(res.structure) + canonical_dumps([c.to_json() for c in res.checks])
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == "5ecbb9fab44b5529"


def _grow_with_safe_extras(rng, base: ColoredStructure, extras: int) -> ColoredStructure:
    """Extend by fresh independent points (plain or colored); the base stays
    closed because fresh independents never create negative extensions."""
    S = base
    for j in range(extras):
        dim = S.backend.ambient_dim + 1
        vec = tuple([F(0)] * (dim - 1) + [F(1)])
        colored = rng.random() < 0.4
        eid = f"n{j}"
        S = S.extended(
            [GroundElement(eid, vec)],
            new_colored=(eid,) if colored else (),
            widen_by=1,
        )
    return S


class TestRandomTriples:
    def test_amalgams_verify(self, rng):
        for i in range(40):
            alpha = ALL_ALPHAS[i % 4]
            M1 = random_k_plus_structure(rng, alpha, max_n=5, max_dim=3)
            ids = list(M1.ids_sorted)
            base1 = sorted(closure(rng.sample(ids, rng.randint(0, len(ids))), M1))
            base_struct = M1.restrict(base1)
            M2 = _grow_with_safe_extras(rng, base_struct, rng.randint(0, 3))
            assert is_closed(base1, M2)
            match = EmbeddingMap.identity(base1)
            res = free_amalgam(M1, M2, base1, base1, match)
            M = res.structure
            assert in_k_plus(M)
            assert verify_strong(res.left, M1, M)
            assert verify_strong(res.right, M2, M)
            r = lambda T, ids_: rank([T.element(x) for x in ids_], T.backend)
            assert r(M, M.id_set) == r(M1, M1.id_set) + r(M2, M2.id_set) - r(M1, base1)

    def test_joint_embedding_always_works(self, rng):
        for i in range(25):
            alpha = ALL_ALPHAS[i % 4]
            M1 = random_k_plus_structure(rng, alpha, max_n=4, max_dim=3)
            M2 = random_k_plus_structure(rng, alpha, max_n=4, max_dim=3)
            res = free_amalgam(M1, M2, [], [], EmbeddingMap(()))
            assert in_k_plus(res.structure)
            assert len(res.structure) == len(M1) + len(M2)


class TestInheritedWitnesses:
    """The amalgam's left check (`strong_extension`) hands the first side's
    memoized least violators to the amalgam; the lemma in `colored` says
    they are the amalgam's answers too."""

    def test_amalgam_serves_first_side_answers(self, rng, monkeypatch):
        sizes = []
        for i in range(20):
            alpha = ALL_ALPHAS[i % 4]
            P = random_k_plus_structure(rng, alpha, max_n=7, max_dim=4, color_p=0.6)
            while len(P) < 5:
                P = random_k_plus_structure(rng, alpha, max_n=7, max_dim=4, color_p=0.6)
            ids = P.ids_sorted
            subsets = [frozenset(c) for r in range(len(ids) + 1) for c in itertools.combinations(ids, r)]
            for x in subsets:
                min_violating_witness(P, x)
            catalog = task_catalog(alpha, 3)
            task = catalog[i % len(catalog)]
            base = [p for p in ids if not P.is_colored(p) and is_closed([p], P)][: len(task.small)]
            if len(base) < len(task.small):  # no closed plain point to glue over
                task, base = catalog[i % 2], []
            match = EmbeddingMap(tuple(zip(base, task.small.ids_sorted)))
            M = free_amalgam(P, task.big, base, task.small.id_set, match).structure
            t = SubsetTable(M)
            with monkeypatch.context() as m:
                m.setattr(colored, "_least_violator", None)  # every answer from the memo
                for x in subsets:
                    got = min_violating_witness(M, x)
                    want = _least_violator(t, t.mask_of(x))
                    assert got == (None if want is None else t.ids_of(want))
                    sizes.append(0 if got is None else len(got))
        # closed sets, single-point and larger violators all occur
        assert sizes.count(0) >= 300 and sizes.count(1) >= 300 and sum(w >= 2 for w in sizes) >= 100

    def test_false_leaves_the_memo_empty(self):
        S = witness_structure()  # {a} is not closed: b1, b2 lie over it
        independent = ColoredStructure(  # S's ids, closed in S, but of rank 3
            Backend(LINEAR, 3),
            (ge("a", 1, 0, 0), ge("b1", 0, 1, 0), ge("b2", 0, 0, 1)),
            frozenset({"b1", "b2"}),
            S.alpha,
        )
        stranger = ColoredStructure(
            Backend(LINEAR, 2), (ge("a", 1, 0), ge("z", 0, 1)), frozenset(), S.alpha
        )
        for P in (S.restrict(["a"]), independent, stranger):
            for x in (set(), P.id_set):
                min_violating_witness(P, x)
            assert P._witnesses
            assert not strong_extension(P, S)
            assert S._witnesses == {}
        P = S.restrict(["b1"])
        min_violating_witness(P, [])
        assert strong_extension(P, S)
        assert S._witnesses == {frozenset(): None, frozenset({"b1"}): None}
