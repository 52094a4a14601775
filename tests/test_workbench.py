import hashlib
import json
import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from bicolor.closure import is_closed
from bicolor.colored import ColoredStructure, EmbeddingMap, empty_structure, in_k_plus
from bicolor.errors import BudgetExceeded, SchemaError
from bicolor.pregeom import Backend, FREE, GroundElement, LINEAR
from bicolor import colored, workbench
from bicolor.report import canonical_dumps
from bicolor.workbench import (
    audit_richness,
    audit_semi_generic,
    build_generic,
    dumps,
    load,
    loads,
    make_task,
    save,
    task_catalog,
)

from conftest import ALPHA_HALF, ALPHA_INV_SQRT2, ALPHA_ONE, ALPHA_TWO_THIRDS
from test_colored import ge, witness_structure


class TestGenericGoldenBytes:
    """build_generic from three dependent points with non-integer payloads,
    then audit_richness, pinned by sha256 prefix of the structure and report."""

    @pytest.mark.parametrize(
        "alpha, digest",
        [
            (ALPHA_HALF, "22c904a50745e1ee"),
            (ALPHA_TWO_THIRDS, "da16f9cf1f0ee381"),
            (ALPHA_INV_SQRT2, "b8d41a9b4672af5f"),
        ],
        ids=["1/2", "2/3", "1/sqrt2"],
    )
    def test_bytes(self, alpha, digest):
        seed = ColoredStructure(
            Backend(LINEAR, 2),
            (ge("p", F(1, 2), F(1, 3)), ge("q", F(2, 3), -1), ge("r", F(1, 4), F(5, 6))),
            frozenset({"q"}),
            alpha,
        )
        built = build_generic(seed, 30, 3, 7)
        assert any(x.denominator != 1 for e in built.elements for x in e.vec)
        blob = dumps(built) + canonical_dumps(audit_richness(built, 3).to_json())
        assert hashlib.sha256(blob.encode()).hexdigest()[:16] == digest


SEMI_GENERIC_B = {
    "two-colored": (((1, 0), (0, 1)), ("x1", "x2")),
    "two-plain": (((1, 0), (0, 1)), ()),
    "three-fresh": (((1, 0, 0), (0, 1, 0), (0, 0, 1)), ("x2",)),
    "base-plus-two": (((1, 0, 0), (0, 1, 0), (0, 0, 1)), ("x3",)),
    "base-plus-dependent": (((1, 0), (0, 1), (1, 1)), ("x2", "x3")),
}
SEMI_GENERIC_S = {
    "1/2": (ALPHA_HALF, 16, 2, 3),
    "2/3": (ALPHA_TWO_THIRDS, 20, 3, 13),
    "1/sqrt2": (ALPHA_INV_SQRT2, 12, 2, 5),
}


class TestSemiGenericGoldenBytes:
    """audit_semi_generic over B with two or three fresh transcendental
    points, pinned by sha256 prefix of the report, with its verdict and tried
    count; two cases stop at the cap."""

    @pytest.mark.parametrize(
        "s_name, b_name, f, n, cap, passed, tried, digest",
        [
            ("1/2", "two-colored", {}, 2, 200, False, 4, "d280fa02c1c0386a"),
            ("2/3", "three-fresh", {}, 3, 200, True, 3, "0ce9e4f86acd76a4"),
            ("1/sqrt2", "two-plain", {}, 2, 200, True, 2, "bda43b2b8f1217d2"),
            ("2/3", "base-plus-two", {"x1": "s1_x1"}, 3, 200, True, 8, "8501f1a3cd873fe5"),
            ("2/3", "base-plus-two", {"x1": "s1_x1"}, 3, 2, False, 2, "7c49daf586821031"),
            ("2/3", "two-plain", {}, 3, 2, False, 2, "7c49daf586821031"),
            ("1/2", "base-plus-dependent", {"x1": "s0_x1"}, 2, 200, False, 0, "b86eff2551e60137"),
        ],
    )
    def test_bytes(self, s_name, b_name, f, n, cap, passed, tried, digest):
        alpha, steps, budget, rng_seed = SEMI_GENERIC_S[s_name]
        S = build_generic(empty_structure(alpha, 0), steps, budget, rng_seed)
        vecs, colored = SEMI_GENERIC_B[b_name]
        B = ColoredStructure(
            Backend(LINEAR, len(vecs[0])),
            tuple(ge(f"x{i + 1}", *v) for i, v in enumerate(vecs)),
            frozenset(colored),
            alpha,
        )
        assert len(B) - len(f) >= 2
        rep = audit_semi_generic(S, EmbeddingMap.of(f), B, n, cap)
        assert (rep.passed, rep.tried) == (passed, tried)
        blob = canonical_dumps(rep.to_json())
        assert hashlib.sha256(blob.encode()).hexdigest()[:16] == digest


class TestExtensionSearchCost:
    """One extension search restricts no structure and never calls
    is_lp_embedding: the base is tested against its prefix like every fresh
    point.  The source side's coordinates are planned once per task."""

    def test_one_search_counts(self, monkeypatch):
        S = build_generic(empty_structure(ALPHA_TWO_THIRDS, 0), 20, 3, 13)
        calls = {"restrict": 0, "embedding": 0, "plan": 0}
        restrict, is_lp = ColoredStructure.restrict, workbench.is_lp_embedding

        def counted_restrict(self, ids):
            calls["restrict"] += 1
            return restrict(self, ids)

        def counted_is_lp(*args):
            calls["embedding"] += 1
            return is_lp(*args)

        class CountedPlan(workbench._SearchPlan):
            def __init__(self, *args):
                calls["plan"] += 1
                super().__init__(*args)

        catalog = task_catalog(ALPHA_TWO_THIRDS, 3)
        embeddings = {t.task_id: workbench._strong_embeddings(t.small, S, 3) for t in catalog}
        expected = {
            (t.task_id, f): workbench._extend_embedding(t, f, S)
            for t in task_catalog(ALPHA_TWO_THIRDS, 3)
            for f in embeddings[t.task_id]
        }
        searched = 0
        with monkeypatch.context() as m:
            m.setattr(ColoredStructure, "restrict", counted_restrict)
            m.setattr(workbench, "is_lp_embedding", counted_is_lp)
            m.setattr(colored, "is_lp_embedding", counted_is_lp)
            m.setattr(workbench, "_SearchPlan", CountedPlan)
            for task in catalog:
                calls["plan"] = 0
                for f in embeddings[task.task_id]:
                    calls.update(restrict=0, embedding=0)
                    got = workbench._extend_embedding(task, f, S)
                    assert got == expected[task.task_id, f]
                    assert calls["restrict"] == 0, task.task_id
                    assert calls["embedding"] == 0, task.task_id
                    searched += 1
                assert calls["plan"] == (1 if embeddings[task.task_id] else 0), task.task_id
        assert searched >= 6


def _cleared(vec):
    """The test's own clearing of a Fraction vector: (lcm of the
    denominators, the integer row)."""
    m = math.lcm(*(x.denominator for x in vec))
    return m, tuple(int(x * m) for x in vec)


SMALL = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def image_systems(draw):
    """(ncols, image vectors, nonzero coefficients by distinct index)."""
    ncols = draw(st.integers(1, 4))
    vecs = draw(st.lists(st.lists(SMALL, min_size=ncols, max_size=ncols).map(tuple), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(vecs) - 1), unique=True, max_size=len(vecs)))
    coeffs = [(j, draw(SMALL.filter(bool))) for j in picks]
    return ncols, vecs, coeffs


class TestIntegerPayloadKeys:
    """The embedding search keys points by their integer payloads (m, row);
    the test oracle is Fraction arithmetic and clearing done here."""

    @given(image_systems())
    @settings(max_examples=300)
    def test_image_of_matches_fraction_combination(self, system):
        ncols, vecs, coeffs = system
        img = []
        for v in vecs:
            m, row = _cleared(v)
            img.append((m, [(col, q) for col, q in enumerate(row) if q]))
        z = [F(0)] * ncols
        for j, c in coeffs:
            z = [x + c * y for x, y in zip(z, vecs[j])]
        den = math.lcm(*(c.denominator for _, c in coeffs))
        terms = [(j, int(c * den)) for j, c in coeffs]
        assert workbench._image_of((den, terms), img, ncols) == _cleared(z)
        assert workbench._image_of(None, img, ncols) is None

    @given(
        st.lists(st.lists(SMALL, min_size=2, max_size=2).map(tuple).filter(any), min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(0, 3), st.sampled_from([F(1), F(-1), F(1, 2), F(3)])), max_size=8),
    )
    @settings(max_examples=200)
    def test_key_lookup_matches_fraction_dict(self, pool, draws):
        """Points repeat and rescale payloads of a small pool; the lookup by
        integer key gives what a dict keyed by Fraction payloads gives."""
        vecs = list(pool) + [tuple(c * x for x in pool[i % len(pool)]) for i, c in draws]
        elements = tuple(GroundElement(f"p{i:02d}", v) for i, v in enumerate(vecs))
        S = ColoredStructure(Backend(LINEAR, 2), elements, frozenset(), ALPHA_HALF)
        expected = {}
        for e in S.elements:
            expected.setdefault(e.vec, []).append(e.id)
        for vec, ids in expected.items():
            assert S.ids_with_vec(_cleared(vec)) == ids
            absent = tuple(7 * x for x in vec)
            assert S.ids_with_vec(_cleared(absent)) == expected.get(absent, [])

    def test_generic_round_hashes_no_fraction(self, monkeypatch):
        """One build, audit and save/load round over a seed with
        non-integer payloads hashes no Fraction."""
        seed = _golden_seed(ALPHA_HALF)
        calls = [0]
        original = F.__hash__

        def counted(self):
            calls[0] += 1
            return original(self)

        monkeypatch.setattr(F, "__hash__", counted)
        G = build_generic(seed, 6, 3, 7)
        report = audit_richness(G, 3)
        assert loads(dumps(G)) == G
        assert calls[0] == 0
        assert len(G) > len(seed) and report.tasks
        hash(F(1, 3))
        assert calls[0] == 1  # the wrapper is live


def _golden_seed(alpha):
    return ColoredStructure(
        Backend(LINEAR, 2),
        (ge("p", F(1, 2), F(1, 3)), ge("q", F(2, 3), -1), ge("r", F(1, 4), F(5, 6))),
        frozenset({"q"}),
        alpha,
    )


class TestCleanAuditRecord:
    """build_generic records its last audit, clean on the structure it
    returns, and audit_richness answers the same budget and cap on the same
    object from that record, a fresh copy each time."""

    @pytest.mark.parametrize(
        "alpha, digest",
        [
            (ALPHA_HALF, "22c904a50745e1ee"),
            (ALPHA_TWO_THIRDS, "da16f9cf1f0ee381"),
            (ALPHA_INV_SQRT2, "b8d41a9b4672af5f"),
        ],
        ids=["1/2", "2/3", "1/sqrt2"],
    )
    def test_pinned_bytes_without_an_audit(self, monkeypatch, alpha, digest):
        built = build_generic(_golden_seed(alpha), 30, 3, 7)

        def no_audit(*args):
            raise AssertionError("audited again")

        monkeypatch.setattr(workbench, "_audit", no_audit)
        blob = dumps(built) + canonical_dumps(audit_richness(built, 3).to_json())
        assert hashlib.sha256(blob.encode()).hexdigest()[:16] == digest

    def test_reports_are_fresh_copies(self):
        built = build_generic(_golden_seed(ALPHA_HALF), 30, 3, 7)
        first = audit_richness(built, 3)
        want = canonical_dumps(first.to_json())
        outcome = next(o for t in first.tasks for o in t.outcomes)
        outcome.extension.clear()
        outcome.extended = False
        first.tasks.pop()
        first.passed = False
        again = audit_richness(built, 3)
        assert canonical_dumps(again.to_json()) == want and again is not audit_richness(built, 3)

    def test_other_questions_miss_the_record(self, monkeypatch):
        built = build_generic(_golden_seed(ALPHA_TWO_THIRDS), 30, 3, 7)
        want = audit_richness(built, 3).to_json()
        audits, audit = [], workbench._audit

        def counted(S, catalog, cap):
            audits.append(cap)
            return audit(S, catalog, cap)

        monkeypatch.setattr(workbench, "_audit", counted)
        assert audit_richness(built, 3).to_json() == want and audits == []
        audit_richness(built, 2)
        audit_richness(built, 3, cap=5)
        assert audits == [200, 5]
        for other in (loads(dumps(built)), built.restrict(built.id_set)):
            assert audit_richness(other, 3).to_json() == want
        assert audits == [200, 5, 200, 200]

    def test_record_goes_with_its_structure(self):
        built = build_generic(_golden_seed(ALPHA_HALF), 30, 3, 7)
        key = id(built)
        assert set(workbench._CLEAN_AUDITS[key]) == {(3, 200)}
        del built
        assert key not in workbench._CLEAN_AUDITS

    def test_a_build_that_runs_out_of_steps_records_nothing(self):
        built = build_generic(_golden_seed(ALPHA_HALF), 2, 3, 7)
        assert id(built) not in workbench._CLEAN_AUDITS
        assert not audit_richness(built, 3).passed


class TestClosednessAskedOnce:
    """A build, and an audit of its result, search each set once per build
    lineage: `min_violating_witness` answers a set again from the memo of the
    structure asked, and each amalgam hands its first side's memo on.  So the
    searches are counted, not the questions: a search is a memo miss."""

    @staticmethod
    def _record(monkeypatch):
        """Lists of the searches run, as (structure, set), and of the first
        sides of the amalgams, in order; both hold each structure, so ids
        stay distinct."""
        searched, lineage = [], []
        search, amalgam = colored._least_violator, workbench.free_amalgam

        def counted(S, x, *args):
            searched.append((S, x))
            return search(S, x, *args)

        def recorded(M1, *args):
            lineage.append(M1)
            return amalgam(M1, *args)

        monkeypatch.setattr(colored, "_least_violator", counted)
        monkeypatch.setattr(workbench, "free_amalgam", recorded)
        return searched, lineage

    @staticmethod
    def _sets_on(searched, structures) -> list:
        return [x for S, x in searched if any(S is T for T in structures)]

    def test_audit_richness(self, monkeypatch):
        searched, lineage = self._record(monkeypatch)
        S = build_generic(empty_structure(ALPHA_TWO_THIRDS, 0), 20, 3, 13)
        built = set(self._sets_on(searched, lineage + [S]))
        searched.clear()
        report = audit_richness(S, 3)
        assert sum(t.tried for t in report.tasks) > 10
        assert built.isdisjoint(self._sets_on(searched, [S]))

    @pytest.mark.parametrize("alpha", [ALPHA_TWO_THIRDS, ALPHA_INV_SQRT2], ids=["2/3", "1/sqrt2"])
    def test_build_generic(self, monkeypatch, alpha):
        searched, lineage = self._record(monkeypatch)
        S = build_generic(empty_structure(alpha, 0), 20, 3, 13)
        keys = [(id(T), x) for T, x in searched]
        assert len(keys) == len(set(keys))
        assert len(lineage) > 5
        seen = set()  # sets searched on the ancestors so far
        for k, T in enumerate(lineage + [S]):
            sets = self._sets_on(searched, [T])
            # the left injection's check searches whether T's parent is closed in T
            parent = {lineage[k - 1].id_set} if k else set()
            assert seen.isdisjoint(set(sets) - parent)
            seen.update(sets)


class TestRoundTrip:
    def test_empty(self):
        S = empty_structure(ALPHA_HALF, ambient=2)
        assert loads(dumps(S)) == S

    def test_witness_bytes(self, tmp_path):
        S = witness_structure()
        p = tmp_path / "w.json"
        save(S, p)
        text = p.read_text()
        S2 = load(p)
        assert S2 == S
        save(S2, p)
        assert p.read_text() == text  # byte identity on canonical files

    def test_free_backend(self):
        S = ColoredStructure(
            Backend(FREE), (GroundElement("x"), GroundElement("y")), frozenset({"y"}), ALPHA_ONE
        )
        assert loads(dumps(S)) == S

    def test_fraction_strings(self):
        S = ColoredStructure(
            Backend(LINEAR, 2),
            (GroundElement("a", (F(-3, 2), F(5))),),
            frozenset(),
            ALPHA_HALF,
        )
        obj = json.loads(dumps(S))
        assert obj["elements"][0]["vec"] == ["-3/2", "5"]
        assert loads(dumps(S)) == S

    def test_alpha_out_of_range_rejected(self):
        text = dumps(witness_structure()).replace('"num":2', '"num":5')
        with pytest.raises(SchemaError):
            loads(text)

    def test_zero_vector_rejected(self):
        text = dumps(witness_structure()).replace('["1","0"]', '["0","0"]')
        with pytest.raises(SchemaError):
            loads(text)

    def test_bad_rational_rejected(self):
        text = dumps(witness_structure()).replace('"1"', '"1.5"')
        with pytest.raises(SchemaError):
            loads(text)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.from_regex(workbench._RATIONAL_RE),
        st.sampled_from(["-0", "007", "2/4", "-0/3", "-12/18", "0/1", "5\n", "3/4\n", "000/1001"]),
    ))
    def test_regex_valid_rationals_parse_as_before(self, text):
        # the integer parse agrees with Fraction's string parser on every
        # string the schema's pattern admits, a trailing newline included:
        # the reduced pair (p, q) with q > 0
        got = workbench._parse_rational(text, "where")
        assert got == (F(text).numerator, F(text).denominator)
        assert all(type(x) is int for x in got)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.integers(), st.integers(min_value=-10**60, max_value=10**60)),
        st.one_of(st.just(1), st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=10**30)),
    )
    def test_entry_writer_matches_fraction_str(self, q, m):
        assert workbench._entry(q, m) == str(F(q, m))
        assert workbench._entry(q * m, m) == str(F(q))

    @pytest.mark.parametrize("text", ["1.5", "1/0", "1/-2", "+1", " 1", "1 /2", "", "1e3", "/2", "1/"])
    def test_bad_rational_messages(self, text):
        with pytest.raises(SchemaError, match=re.escape(f"where: cannot parse rational {text!r}")):
            workbench._parse_rational(text, "where")
        with pytest.raises(SchemaError, match="where: rational must be a string, got int"):
            workbench._parse_rational(3, "where")

    def test_bad_json_diagnostics(self):
        with pytest.raises(SchemaError) as e:
            loads("{nope")
        assert "line 1" in str(e.value)

    def test_missing_field(self):
        with pytest.raises(SchemaError):
            loads('{"alpha":{"kind":"rational","num":1,"den":2},"backend":{"kind":"linear","ambientDim":1}}')

    @pytest.mark.parametrize(
        "old, new, field",
        [
            ('"num":2', '"num":1.9', "alpha.num"),
            ('"colored":true', '"colored":"no"', "elements[1].colored"),
            ('"colored":false', '"colored":1', "elements[0].colored"),
            ('"ambientDim":2', '"ambientDim":true', "backend.ambientDim"),
        ],
        ids=["float-alpha", "string-colored", "integer-colored", "bool-ambient-dim"],
    )
    def test_lossy_fields_rejected(self, old, new, field):
        text = dumps(witness_structure())
        assert old in text
        with pytest.raises(SchemaError, match=re.escape(field)):
            loads(text.replace(old, new, 1))


class TestTaskCatalog:
    def test_budget_zero_empty(self):
        assert task_catalog(ALPHA_HALF, 0) == []

    def test_budget_one(self):
        names = [t.task_id for t in task_catalog(ALPHA_HALF, 1)]
        assert names == ["plain-point", "colored-point"]

    def test_budget_three_rational_patch(self):
        names = [t.task_id for t in task_catalog(ALPHA_TWO_THIRDS, 3)]
        assert "patch-ratmin-t0" in names
        patch = [t for t in task_catalog(ALPHA_TWO_THIRDS, 3) if t.task_id == "patch-ratmin-t0"][0]
        # the minimal-pair shape: anchor + two colored points, small side empty
        assert len(patch.big) == 3
        assert len(patch.small) == 0
        assert len(patch.big.colored) == 2

    def test_colored_pair_only_at_small_alpha(self):
        assert any(
            t.task_id == "parallel-colored-colored" for t in task_catalog(ALPHA_HALF, 2)
        )
        assert not any(
            t.task_id == "parallel-colored-colored" for t in task_catalog(ALPHA_TWO_THIRDS, 2)
        )

    def test_irrational_patch_at_budget_four(self):
        names = [t.task_id for t in task_catalog(ALPHA_INV_SQRT2, 4)]
        assert "patch-dirichlet-q4" in names
        assert not any("patch" in t.task_id for t in task_catalog(ALPHA_INV_SQRT2, 3))

    def test_budget_cap(self):
        with pytest.raises(BudgetExceeded):
            task_catalog(ALPHA_HALF, 6)

    def test_tasks_internally_valid(self):
        for alpha in (ALPHA_ONE, ALPHA_HALF, ALPHA_TWO_THIRDS, ALPHA_INV_SQRT2):
            for t in task_catalog(alpha, 4):
                assert in_k_plus(t.big)
                assert is_closed(t.small.id_set, t.big)
                assert t.kind in ("algebraic", "transcendental", "mixed")


class TestAuditRichness:
    def test_empty_structure_fails(self):
        rep = audit_richness(empty_structure(ALPHA_HALF, 1), 1)
        assert not rep.passed
        plain = [t for t in rep.tasks if t.task_id == "plain-point"][0]
        assert plain.tried == 1 and not plain.all_extended

    def test_determinism(self):
        S = build_generic(empty_structure(ALPHA_HALF, 0), 8, 1, 3)
        r1 = audit_richness(S, 1)
        r2 = audit_richness(S, 1)
        assert r1.to_json() == r2.to_json()

    def test_extension_maps_reverify(self):
        from bicolor.amalgam import verify_strong

        S = build_generic(empty_structure(ALPHA_HALF, 0), 8, 1, 3)
        rep = audit_richness(S, 1)
        assert rep.passed
        cat = {t.task_id: t for t in task_catalog(ALPHA_HALF, 1)}
        for taud in rep.tasks:
            task = cat[taud.task_id]
            for out in taud.outcomes:
                assert out.extended
                g = EmbeddingMap.of(out.extension)
                assert verify_strong(g, task.big, S)


class TestAuditSemiGeneric:
    def test_b_equals_a_trivial(self):
        S = build_generic(empty_structure(ALPHA_INV_SQRT2, 0), 4, 1, 1)
        B = task_catalog(ALPHA_INV_SQRT2, 1)[0].big  # one plain point
        # embed the whole of B, so there is nothing to extend
        rep_targets = [
            i for i in S.ids_sorted if not S.is_colored(i) and is_closed([i], S)
        ]
        f = EmbeddingMap.of({"x1": rep_targets[0]})
        rep = audit_semi_generic(S, f, B, 2)
        assert rep.passed
        assert rep.witness == f.to_json()

    def test_colored_point_witness(self):
        S = build_generic(empty_structure(ALPHA_INV_SQRT2, 0), 10, 2, 5)
        B = [t for t in task_catalog(ALPHA_INV_SQRT2, 1) if t.task_id == "colored-point"][0].big
        f = EmbeddingMap(())  # A = empty
        rep = audit_semi_generic(S, f, B, 2)
        assert rep.passed
        assert rep.witness is not None

    def test_too_small_reports_failure(self):
        S = empty_structure(ALPHA_INV_SQRT2, 1)
        B = task_catalog(ALPHA_INV_SQRT2, 1)[0].big
        rep = audit_semi_generic(S, EmbeddingMap(()), B, 1)
        assert not rep.passed
        assert rep.witness is None

    def test_requires_transcendental(self):
        # parallel plain extension is algebraic, so the audit refuses
        S = build_generic(empty_structure(ALPHA_HALF, 0), 4, 1, 1)
        task = [t for t in task_catalog(ALPHA_HALF, 2) if t.task_id == "parallel-ext-plain"][0]
        target = [i for i in S.ids_sorted if not S.is_colored(i) and is_closed([i], S)][0]
        from bicolor.errors import NotTranscendental

        with pytest.raises(NotTranscendental):
            audit_semi_generic(S, EmbeddingMap.of({"x1": target}), task.big, 1)


class TestBuildGeneric:
    def test_zero_steps(self):
        seed = empty_structure(ALPHA_HALF, 0)
        assert build_generic(seed, 0, 2, 9) == seed

    def test_deterministic_bytes(self):
        seed = empty_structure(ALPHA_HALF, 0)
        b1 = build_generic(seed, 12, 2, 42)
        b2 = build_generic(seed, 12, 2, 42)
        assert dumps(b1) == dumps(b2)

    def test_different_seeds_still_pass_audit(self):
        seed = empty_structure(ALPHA_HALF, 0)
        for rng_seed in (1, 2):
            S = build_generic(seed, 12, 1, rng_seed)
            assert audit_richness(S, 1).passed

    def test_k_plus_maintained(self):
        S = build_generic(empty_structure(ALPHA_TWO_THIRDS, 0), 10, 2, 4)
        assert in_k_plus(S)

    def test_irrational_build(self):
        S = build_generic(empty_structure(ALPHA_INV_SQRT2, 0), 8, 2, 4)
        assert in_k_plus(S)
        assert audit_richness(S, 1).passed


class TestMakeTask:
    def test_rejects_non_closed_small(self):
        from bicolor.errors import InvariantError

        S = witness_structure()
        with pytest.raises(InvariantError):
            make_task("bad", S, ["a"])

    def test_mixed_kind_split(self):
        alpha = ALPHA_HALF
        big = ColoredStructure(
            Backend(LINEAR, 2),
            (ge("a", 1, 0), ge("p", 2, 0), ge("t", 0, 1)),
            frozenset(),
            alpha,
        )
        task = make_task("mix", big, ["a"])
        assert task.kind == "mixed"
        assert task.algebraic_split == {"a", "p"}


class TestBuilderConvergence:
    def test_budget_two_audit_after_long_build(self):
        # the builder stops as soon as the audit is clean; a long step budget
        # therefore yields a structure passing the same-budget audit
        S = build_generic(empty_structure(ALPHA_HALF, 0), 200, 2, 99)
        rep = audit_richness(S, 2)
        assert rep.passed

    def test_every_embedding_eventually_fixed(self):
        S = build_generic(empty_structure(ALPHA_TWO_THIRDS, 0), 100, 3, 13)
        rep = audit_richness(S, 3)
        assert rep.passed
