import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from bicolor import amalgam, colored
from bicolor.amalgam import free_amalgam, verify_free, verify_strong
from bicolor.closure import closure, is_closed
from bicolor.colored import (
    ColoredStructure,
    EmbeddingMap,
    certify_free_amalgam,
    delta,
    in_k_plus,
    is_weak_iso,
    min_violating_witness,
)
from bicolor.errors import AlphaMismatch, InvariantError, MatchInvalid, NotClosed
from bicolor.exactnum import PreDimValue
from bicolor.pregeom import FREE, Backend, GroundElement, LINEAR, rank
from bicolor.report import canonical_dumps
from bicolor.workbench import dumps, task_catalog

from conftest import (
    ALL_ALPHAS,
    ALPHA_HALF,
    ALPHA_INV_SQRT2,
    ALPHA_ONE,
    ALPHA_TWO_THIRDS,
    SubsetTable,
    brute_in_k_plus,
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


def _golden_amalgam():
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
    return free_amalgam(M1, M2, ["a"], ["x"], EmbeddingMap.of({"a": "x"}))


def _digest(res, checks) -> str:
    blob = dumps(res.structure) + canonical_dumps(checks)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def test_golden_bytes_over_a_base_with_non_integer_payloads():
    """One amalgam over a one-point base, its structure and checks pinned by
    sha256 prefix; both sides' coordinates are solved over non-unit bases."""
    res = _golden_amalgam()
    assert res.structure.element("b2").vec == (F(4, 5), F(-172, 315), 0, 0)
    assert _digest(res, [c.to_json() for c in res.checks]) == "d6d94b033e44f5dc"


def test_golden_bytes_before_the_lemma_certificate():
    """The same amalgam hashed to 5ecbb9fab44b5529 while the lemma's three
    conclusions were searched; putting their old method back reproduces it,
    so the structure and every other byte are unchanged."""
    checks = [c.to_json() for c in _golden_amalgam().checks]
    lemma = ["in_k_plus", "left_injection_strong", "right_injection_strong"]
    assert [c["name"] for c in checks] == lemma + ["parts_free_over_base", "rank_identity"]
    assert [c["method"] for c in checks] == ["certified"] * 3 + ["exhaustive"] * 2
    for c in checks[:3]:
        c["method"] = "exhaustive"
    assert _digest(_golden_amalgam(), checks) == "5ecbb9fab44b5529"


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
    """The amalgam's certificate (`certify_free_amalgam`) hands the first
    side's memoized least violators to the amalgam; the lemmas in `amalgam`
    and `colored` say they are the amalgam's answers too."""

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

    def test_certificate_records_both_parts_closed(self):
        P = witness_structure()
        Q = ColoredStructure(Backend(LINEAR, 1), (ge("y", 1),), frozenset(), P.alpha)
        min_violating_witness(P, ["a"])
        M = free_amalgam(P, Q, [], [], EmbeddingMap(())).structure
        assert M._k_plus is True
        assert P._witnesses[frozenset({"a"})] == {"b1", "b2"}
        assert M._witnesses == {**P._witnesses, P.id_set: None, frozenset({"y"}): None}

    def test_second_side_closed_sets_arrive_under_amalgam_names(self):
        """The second side's memo, every subset asked, under a renaming that
        reverses its id order and over a base whose names change: its closed
        sets arrive in the amalgam under the amalgam's names and hold there
        by brute force, and its violators do not arrive."""
        P = ColoredStructure(Backend(LINEAR, 1), (ge("p", 1),), frozenset({"p"}), ALPHA_TWO_THIRDS)
        W = witness_structure()
        Q = W.renamed({"a": "q3", "b1": "q2", "b2": "q1"})
        subsets = [frozenset(c) for r in range(4) for c in itertools.combinations(Q.ids_sorted, r)]
        for x in subsets:
            min_violating_witness(Q, x)
        assert Q._witnesses[frozenset({"q3"})] == {"q1", "q2"}
        M = free_amalgam(P, Q, ["p"], ["q2"], EmbeddingMap.of({"p": "q2"})).structure
        name = {"q3": "q3", "q2": "p", "q1": "q1"}
        closed = {frozenset(name[i] for i in x) for x, v in Q._witnesses.items() if v is None}
        violated = {frozenset(name[i] for i in x) for x, v in Q._witnesses.items() if v is not None}
        assert len(closed) >= 4 and {"q3"} in violated and {"q1", "q3"} in violated
        assert {x for x, v in M._witnesses.items() if v is None} >= closed
        assert not violated & set(M._witnesses)
        t = SubsetTable(M)
        for x in closed:
            assert _least_violator(t, t.mask_of(x)) is None

    def test_certificate_carries_no_violator_of_the_second_side(self):
        """Handed a second side whose memo holds a violator, the certificate
        records its closed sets only."""
        P = ColoredStructure(Backend(LINEAR, 1), (ge("y", 1),), frozenset(), ALPHA_TWO_THIRDS)
        Q = witness_structure()
        min_violating_witness(Q, ["a"])
        min_violating_witness(Q, ["b1"])
        M = free_amalgam(P, Q, [], [], EmbeddingMap(())).structure.restrict(P.id_set | Q.id_set)
        certify_free_amalgam(M, P, Q)
        assert Q._witnesses[frozenset({"a"})] == {"b1", "b2"}
        assert frozenset({"a"}) not in M._witnesses
        assert M._witnesses[frozenset({"b1"})] is None and M._witnesses[Q.id_set] is None

    def test_certificate_refuses_a_first_side_it_does_not_extend(self):
        S = witness_structure()
        stranger = ColoredStructure(Backend(LINEAR, 1), (ge("z", 1),), frozenset(), S.alpha)
        other_alpha = ColoredStructure(Backend(LINEAR, 1), (ge("a", 1),), frozenset(), ALPHA_ONE)
        for first in (stranger, other_alpha):
            with pytest.raises(InvariantError):
                certify_free_amalgam(S, first, [])
            assert S._witnesses == {} and S._k_plus is None


def _as_linear(S: ColoredStructure) -> ColoredStructure:
    """The free pregeometry on S's points as unit vectors, for SubsetTable."""
    if S.backend.kind != FREE:
        return S
    n = len(S)
    unit = lambda k: tuple(F(int(j == k)) for j in range(n))
    elements = tuple(GroundElement(e, unit(k)) for k, e in enumerate(S.ids_sorted))
    return ColoredStructure(Backend(LINEAR, n), elements, S.colored, S.alpha)


def _brute_closed(t: SubsetTable, mask: int) -> bool:
    """No set over `mask` has negative delta over it, by every subset of the rest."""
    rest = ((1 << t.n) - 1) & ~mask
    sub = rest
    while sub:
        if t.delta_sign(sub, mask) < 0:
            return False
        sub = (sub - 1) & rest
    return True


def _random_side(rng, base: ColoredStructure, extra: int, alpha) -> ColoredStructure | None:
    """base plus `extra` random points (some dependent, some colored) in a
    widened ambient, renamed base ids and an invertible change of
    coordinates on the linear backend; None unless it is in K+ with the
    base's image closed (brute force)."""
    names = {i: f"m{i}" for i in base.ids_sorted} if rng.random() < 0.5 else {}
    colored = {names.get(i, i) for i in base.colored}
    taken = set(names.values()) or base.id_set
    extra_ids = [i for i in (f"e{k}" for k in range(24)) if i not in taken][:extra]
    colored |= {i for i in extra_ids if rng.random() < 0.4}
    if base.backend.kind == FREE:
        elements = [GroundElement(names.get(i, i)) for i in base.ids_sorted]
        elements += [GroundElement(i) for i in extra_ids]
        return ColoredStructure(base.backend, tuple(elements), frozenset(colored), alpha)
    dim = base.backend.ambient_dim + rng.randint(0, 2)
    vecs = [e.vec + (F(0),) * (dim - len(e.vec)) for e in base.elements]
    while True:
        mix = [[F(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(dim)] for _ in range(dim)]
        if rank([GroundElement(f"r{k}", tuple(r)) for k, r in enumerate(mix)], Backend(LINEAR, dim)) == dim:
            break
    new = []
    while len(new) < extra:
        v = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
        if any(v):
            new.append(v)
    move = lambda v: tuple(sum((m[k] * v[k] for k in range(dim)), F(0)) for m in mix)
    ids = [names.get(i, i) for i in base.ids_sorted] + extra_ids
    M2 = ColoredStructure(
        Backend(LINEAR, dim),
        tuple(GroundElement(i, move(v)) for i, v in zip(ids, vecs + new)),
        frozenset(colored),
        alpha,
    )
    t = SubsetTable(M2)
    image = [names.get(i, i) for i in base.ids_sorted]
    if not (brute_in_k_plus(M2) and _brute_closed(t, t.mask_of(image))):
        return None
    return M2


class TestLemmaCertificate:
    """Against `conftest.SubsetTable`, which never calls the code under test:
    random amalgams of at most 12 points, over empty and colored bases and
    on the free backend, at rational and quadratic alpha, are in K+ with
    both parts closed, as the certified checks claim."""

    def test_certified_amalgams_hold_by_brute_force(self):
        rng = random.Random(0xA4A1)
        seen = Counter()
        alphas = [ALPHA_HALF, ALPHA_TWO_THIRDS, ALPHA_INV_SQRT2]
        while sum(seen[k] for k in ("empty-base", "colored-base", "free")) < 60:
            alpha = alphas[rng.randrange(3)]
            M1 = random_k_plus_structure(rng, alpha, max_n=6, max_dim=3, color_p=0.5)
            if rng.random() < 0.2:
                M1 = ColoredStructure(
                    Backend(FREE), tuple(GroundElement(i) for i in M1.ids_sorted), M1.colored, alpha
                )
            ids = list(M1.ids_sorted)
            base1 = sorted(closure(rng.sample(ids, rng.randint(0, len(ids))), M1))
            M2 = _random_side(rng, M1.restrict(base1), rng.randint(0, 12 - len(M1)), alpha)
            if M2 is None:
                continue
            base2 = [f"m{i}" if f"m{i}" in M2.id_set else i for i in base1]
            res = free_amalgam(M1, M2, base1, base2, EmbeddingMap(tuple(zip(base1, base2))))
            M = res.structure
            assert len(M) <= 12
            assert [(c.name, c.passed, c.method) for c in res.checks][:3] == [
                ("in_k_plus", True, "certified"),
                ("left_injection_strong", True, "certified"),
                ("right_injection_strong", True, "certified"),
            ]
            t = SubsetTable(_as_linear(M))
            assert all(t.delta_sign(m) >= 0 for m in range(1 << t.n))
            assert _brute_closed(t, t.mask_of(M1.id_set))
            assert _brute_closed(t, t.mask_of(res.right.image))
            fresh = M.restrict(M.id_set)  # no certificate, no memo: searched again
            assert in_k_plus(fresh) and verify_strong(res.left, M1, fresh)
            assert verify_strong(res.right, M2, fresh)
            if M1.backend.kind == FREE:
                seen["free"] += 1
            elif not base1:
                seen["empty-base"] += 1
            elif M1.colored & set(base1):
                seen["colored-base"] += 1
            seen["quadratic" if not alpha.is_rational else "rational"] += 1
            seen["renamed" if any(b.startswith("m") for b in base2) else "same-ids"] += 1
            seen["collision"] += any(i.startswith("R.") for i in M.id_set)
        for what in ("empty-base", "colored-base", "free", "quadratic", "rational", "renamed", "collision"):
            assert seen[what] >= 5, (what, seen)


class TestLemmaHypotheses:
    """Each check the certificate rests on refuses a forced fault."""

    def test_base_not_closed_on_the_second_side(self):
        S = witness_structure()  # {a} is not closed: b1, b2 lie over it
        other = point("q", False, S.alpha)
        with pytest.raises(NotClosed, match="second"):
            free_amalgam(other, S, ["q"], ["a"], EmbeddingMap.of({"q": "a"}))

    def test_a_match_that_is_not_an_lp_embedding_is_refused(self):
        """b = 2a on the first side, y independent of x on the second: colors
        agree, both bases are closed, but the match breaks the linear structure."""
        M1 = ColoredStructure(Backend(LINEAR, 1), (ge("a", 1), ge("b", 2)), frozenset(), ALPHA_HALF)
        M2 = ColoredStructure(Backend(LINEAR, 2), (ge("x", 1, 0), ge("y", 0, 1)), frozenset(), ALPHA_HALF)
        with pytest.raises(MatchInvalid, match="quantifier-free"):
            free_amalgam(M1, M2, ["a", "b"], ["x", "y"], EmbeddingMap.of({"a": "x", "b": "y"}))

    @staticmethod
    def _sides():
        """a (the base) and p on the first side; a, q and y = a + q on the second."""
        M1 = ColoredStructure(
            Backend(LINEAR, 2), (ge("a", 1, 0), ge("p", 0, 1)), frozenset({"p"}), ALPHA_HALF
        )
        M2 = ColoredStructure(
            Backend(LINEAR, 2), (ge("a", 1, 0), ge("q", 0, 1), ge("y", 1, 1)), frozenset(), ALPHA_HALF
        )
        return M1, M2

    def test_unskewed_sides_amalgamate(self):
        M1, M2 = self._sides()
        M = free_amalgam(M1, M2, ["a"], ["a"], EmbeddingMap.of({"a": "a"})).structure
        assert M.element("y").vec == (1, 0, 1)

    def test_a_part_that_is_not_free_is_refused(self, monkeypatch):
        """y's placed integer payload moved off its side's span into the first
        side's column of p: the parts are no longer free, and only the
        freeness check sees it."""
        build = ColoredStructure.from_payloads

        def skewed(ambient, payloads, colored, alpha):
            m, row = payloads["y"]
            payloads["y"] = m, [row[0], row[1] + m, row[2]]
            return build(ambient, payloads, colored, alpha)

        monkeypatch.setattr(ColoredStructure, "from_payloads", skewed)
        M1, M2 = self._sides()
        with pytest.raises(InvariantError, match="parts_free_over_base"):
            free_amalgam(M1, M2, ["a"], ["a"], EmbeddingMap.of({"a": "a"}))

    def test_a_basis_point_off_its_unit_vector_is_refused(self, monkeypatch):
        """The first side's second basis point placed at e0 + e1: ranks and
        freeness hold, but a point equal to it is placed at e1 alone."""
        coords = amalgam._coords

        def skewed(S, basis_ids, ids):
            out = coords(S, basis_ids, ids)
            for k, eid in enumerate(ids):
                if len(basis_ids) > 1 and eid == basis_ids[1]:
                    den, nums = out[k]
                    out[k] = den, (nums[0] + den, *nums[1:])
            return out

        monkeypatch.setattr(amalgam, "_coords", skewed)
        M1 = ColoredStructure(
            Backend(LINEAR, 2), (ge("a", 1, 0), ge("b", 0, 1), ge("c", 0, 2)), frozenset(), ALPHA_HALF
        )
        with pytest.raises(InvariantError, match="unit vector"):
            free_amalgam(M1, point("z", False, ALPHA_HALF), [], [], EmbeddingMap(()))
