import hashlib
import json

import pytest

from bicolor.cli import main
from bicolor.exactnum import Alpha
from bicolor.report import canonical_dumps
from bicolor.workbench import load, save

from conftest import ALPHA_HALF, ALPHA_INV_SQRT2, ALPHA_TWO_THIRDS
from test_colored import witness_structure


@pytest.fixture
def witness_file(tmp_path):
    p = tmp_path / "w.json"
    save(witness_structure(), p)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestBasicCommands:
    def test_delta(self, capsys, witness_file):
        code, obj = run(capsys, "delta", "--structure", witness_file, "--set", "a,b1,b2")
        assert code == 0
        assert (obj["dimPart"], obj["colorPart"], obj["value"]) == (2, 2, "2/3")

    def test_delta_relative(self, capsys, witness_file):
        code, obj = run(
            capsys, "delta", "--structure", witness_file, "--set", "b1,b2", "--over", "a"
        )
        assert code == 0
        assert obj["value"] == "-1/3"

    def test_closed_false_is_exit_zero(self, capsys, witness_file):
        code, obj = run(capsys, "closed", "--structure", witness_file, "--set", "a")
        assert code == 0
        assert obj == {"closed": False, "witness": ["b1", "b2"]}

    def test_closure(self, capsys, witness_file):
        code, obj = run(capsys, "closure", "--structure", witness_file, "--set", "a")
        assert obj == {"closure": ["a", "b1", "b2"], "steps": 1}

    def test_cln(self, capsys, witness_file):
        code, obj = run(capsys, "cln", "--structure", witness_file, "--set", "a", "-n", "3")
        assert obj["cln"] == ["a", "b1", "b2"]

    def test_minpairs(self, capsys, witness_file):
        code, obj = run(
            capsys, "minpairs", "--structure", witness_file, "--small", "a", "--big", "a,b1,b2"
        )
        assert obj["minimal"] and obj["intrinsic"]
        assert obj["tower"] == [["a"], ["a", "b1", "b2"]]

    def test_dvalue(self, capsys, witness_file):
        code, obj = run(capsys, "dvalue", "--structure", witness_file, "--set", "a")
        assert obj["value"] == "2/3"

    def test_dindep(self, capsys, witness_file):
        code, obj = run(
            capsys, "dindep", "--structure", witness_file,
            "--first", "b1", "--second", "b2", "--over", "a",
        )
        assert code == 0
        assert obj["zClosed"] is False

    def test_dirichlet(self, capsys):
        code, obj = run(
            capsys, "dirichlet",
            "--alpha", '{"kind":"quadratic","a":0,"b":1,"c":2,"d":2}',
            "--epsilon", "1/3",
        )
        assert obj == {"k": 3, "s": 2}

    def test_epsilon(self, capsys):
        code, obj = run(capsys, "epsilon", "--alpha", "2/3", "-n", "3")
        assert (obj["dimPart"], obj["colorPart"], obj["value"]) == (-1, -2, "1/3")


class TestErrorCodes:
    def test_unknown_id_is_one(self, capsys, witness_file):
        code, obj = run(capsys, "closed", "--structure", witness_file, "--set", "zz")
        assert code == 1
        assert obj["error"] == "UnknownElement"

    def test_missing_file_is_one(self, capsys):
        code, obj = run(capsys, "delta", "--structure", "/nope.json", "--set", "a")
        assert code == 1

    def test_exhausted_witness_budget_is_two(self, capsys, monkeypatch, witness_file):
        from bicolor import colored

        monkeypatch.setattr(colored.min_violating_witness, "__defaults__", (1,))
        code, obj = run(capsys, "closure", "--structure", witness_file, "--set", "a")
        assert code == 2
        assert obj == {
            "error": "SearchBudgetExceeded",
            "message": "exact search node budget of 1 exhausted in min_violating_witness "
            "over a 2-point component",
        }

    @pytest.mark.parametrize(
        "check, search", [("ambient_k_plus", "in_k_plus"), ("anchor_closed", "is_closed")],
        ids=["ambient_k_plus", "anchor_closed"],
    )
    def test_forced_overrun_exits_two(self, capsys, monkeypatch, tmp_path, check, search):
        # a power patch over two points (k - s = 1 < 2) is past the
        # fresh-block lemma; with the free-union DP unable to decide the check
        # (it decides ambient_k_plus first, then anchor_closed) the budgeted
        # search decides it, and its overrun fails the construction, naming
        # the check and both reasons
        from bicolor import construct
        from bicolor.errors import SearchBudgetExceeded

        def fail(message):
            raise SearchBudgetExceeded(message)

        original, dp, dp_calls = getattr(construct, search), construct._free_union_min, []

        def dp_unless_checked(*args):
            dp_calls.append(args)
            if ["ambient_k_plus", "anchor_closed"][len(dp_calls) - 1] == check:
                fail("forced refusal")
            return dp(*args)

        monkeypatch.setattr(construct, "_free_union_min", dp_unless_checked)
        monkeypatch.setattr(construct, search, lambda *a, node_budget=None: (
            fail("forced overrun") if node_budget else original(*a)
        ))
        p = tmp_path / "in.json"
        save(TestConstructGoldenBytes.INPUTS["irr2"](), p)
        argv = ["power", "--base", "b1,b2", "--mu", "1/2", "-n", "2", "--structure", str(p)]
        code, obj = run(capsys, "construct", *argv)
        assert code == 2
        assert obj == {
            "error": "SearchBudgetExceeded",
            "message": f"{check}: forced refusal; its search: forced overrun",
        }

    def test_misshapen_build_exits_two(self, capsys, monkeypatch, tmp_path):
        # two points of the patch share a lambda, so the moment curve fails
        # and fails the construction, naming the first check that reads it
        from bicolor import construct
        from test_construct import _repeating

        monkeypatch.setattr(construct, "_moment_rows", _repeating(construct._moment_rows))
        p = tmp_path / "in.json"
        save(TestConstructGoldenBytes.INPUTS["irr"](), p)
        argv = ["patch", "--base", "b", "--epsilon", "1/3", "--structure", str(p)]
        code, obj = run(capsys, "construct", *argv)
        assert code == 2
        assert obj == {
            "error": "InvariantError",
            "message": "delta_gap: the lambdas and unit points of copy 1 are distinct does not hold on the result",
        }

    def test_non_integer_alpha_json_is_one(self, capsys):
        alpha = '{"kind":"rational","num":1.9,"den":3}'  # was read as 1/3
        code, obj = run(capsys, "epsilon", "--alpha", alpha, "-n", "3")
        assert code == 1
        assert obj["error"] == "SchemaError" and "alpha.num" in obj["message"]

    def test_non_boolean_colored_is_one(self, capsys, tmp_path, witness_file):
        p = tmp_path / "bad.json"
        p.write_text(open(witness_file).read().replace('"colored":true', '"colored":"no"', 1))
        code, obj = run(capsys, "delta", "--structure", str(p), "--set", "a")
        assert code == 1
        assert obj["error"] == "SchemaError" and "colored" in obj["message"]

    def test_rational_alpha_patch_is_one(self, capsys, witness_file):
        code, obj = run(
            capsys, "construct", "patch", "--structure", witness_file,
            "--base", "a", "--epsilon", "1/3",
        )
        assert code == 1
        assert obj["error"] == "RationalAlpha"


class TestConstructAndFiles:
    def test_ratmin_writes_structure(self, capsys, tmp_path, witness_file):
        out = tmp_path / "out.json"
        code, obj = run(
            capsys, "construct", "ratmin", "--structure", witness_file,
            "--base", "a", "-t", "0", "--out", str(out),
        )
        assert code == 0
        assert all(c["pass"] for c in obj["checks"])
        grown = load(out)
        assert len(grown) == 5

    def test_power_patch_closure_from_file(self, capsys, tmp_path):
        # the closure of d1 in the 25-point power patch (see test_closure's
        # hand count), with K+ searched again after the round-trip
        from fractions import Fraction as F

        from bicolor.construct import free_power_patch

        base = _plain_points(ALPHA_INV_SQRT2, [("b", (1,))])
        p = tmp_path / "patch.json"
        save(free_power_patch([], ["b"], F(1, 2), 2, base).structure, p)
        code, obj = run(capsys, "closure", "--structure", str(p), "--set", "d1")
        assert code == 0
        assert obj == {"closure": sorted(f"d{i}" for i in range(1, 25)), "steps": 3}

    def test_chain(self, capsys, tmp_path):
        code, obj = run(
            capsys, "construct", "chain",
            "--alpha", '{"kind":"quadratic","a":0,"b":1,"c":2,"d":2}',
            "--depth", "1", "--ambient-budget", "8",
        )
        assert code == 0
        assert obj["levels"][1]["pair"] == {"k": 3, "s": 2}

    def test_union_past_the_dp_is_searched(self, capsys, tmp_path):
        # at 15/16 over two points the pair is (14, 15): k - s = 1 < 2 is past
        # the fresh-block lemma, and the 15-point copy is past the DP's block
        # limit, so the budgeted searches of the union decide both checks
        from bicolor.exactnum import Alpha

        p = tmp_path / "in.json"
        save(_plain_points(Alpha.rational(15, 16), [("b1", (1, 0)), ("b2", (0, 1))]), p)
        code, obj = run(capsys, "construct", "ratmin", "--base", "b1,b2", "-t", "0", "--structure", str(p))
        assert code == 0
        assert {c["name"]: (c["pass"], c["method"]) for c in obj["checks"]}.items() >= {
            "anchor_closed": (True, "exhaustive"), "ambient_k_plus": (True, "exhaustive"),
        }.items()

    def test_chain_at_small_alpha(self, capsys):
        # sqrt(2)/6 <= 1/3: level 1's window is at least alpha
        code, obj = run(
            capsys, "construct", "chain",
            "--alpha", '{"kind":"quadratic","a":0,"b":1,"c":6,"d":2}',
            "--depth", "2", "--ambient-budget", "8",
        )
        assert code == 0
        assert [lv["pair"] for lv in obj["levels"][1:]] == [{"k": 5, "s": 1}, {"k": 9, "s": 2}]

    def test_dsystem(self, capsys, tmp_path):
        from bicolor.colored import ColoredStructure
        from bicolor.pregeom import Backend, GroundElement, LINEAR
        from fractions import Fraction as F

        elems = []
        for i in range(5):
            vec = [F(0)] * 5
            vec[i] = F(1)
            elems.append(GroundElement(f"y{i}", tuple(vec)))
        S = ColoredStructure(Backend(LINEAR, 5), tuple(elems), frozenset(), ALPHA_HALF)
        p = tmp_path / "pool.json"
        save(S, p)
        code, obj = run(
            capsys, "construct", "dsystem", "--structure", str(p),
            "--family", "y0;y1;y2;y3", "-n", "3",
        )
        assert code == 0
        assert obj["root"] == []
        assert len(obj["indices"]) >= 3

    def test_amalgam_roundtrip(self, capsys, tmp_path):
        from bicolor.colored import ColoredStructure
        from bicolor.pregeom import Backend, GroundElement, LINEAR
        from fractions import Fraction as F

        M1 = ColoredStructure(
            Backend(LINEAR, 1), (GroundElement("x", (F(1),)),), frozenset({"x"}),
            ALPHA_HALF,
        )
        M2 = ColoredStructure(
            Backend(LINEAR, 1), (GroundElement("y", (F(1),)),), frozenset({"y"}),
            ALPHA_HALF,
        )
        p1, p2, out = tmp_path / "1.json", tmp_path / "2.json", tmp_path / "m.json"
        save(M1, p1)
        save(M2, p2)
        code, obj = run(
            capsys, "amalgam", "-1", str(p1), "-2", str(p2), "--base", "",
            "--out", str(out),
        )
        assert code == 0
        assert obj["size"] == 2
        assert load(out).backend.ambient_dim == 2

    def test_generic_and_audit(self, capsys, tmp_path):
        out = tmp_path / "g.json"
        code, obj = run(
            capsys, "generic", "--alpha", "1/2", "--steps", "8", "--budget", "1",
            "--seed", "5", "--out", str(out),
        )
        assert code == 0
        code, rep = run(capsys, "audit", "rich", "--structure", str(out), "--budget", "1")
        assert code == 0
        assert rep["pass"] is True

    def test_report_file(self, capsys, tmp_path, witness_file):
        rp = tmp_path / "r.json"
        code, obj = run(
            capsys, "closed", "--structure", witness_file, "--set", "a",
            "--report", str(rp),
        )
        assert code == 0
        assert json.loads(rp.read_text()) == obj


class TestMoreSurface:
    def test_power_cli(self, capsys, tmp_path):
        from bicolor.colored import ColoredStructure
        from bicolor.pregeom import Backend, GroundElement, LINEAR
        from fractions import Fraction as F
        from bicolor.workbench import save as wsave

        S = ColoredStructure(
            Backend(LINEAR, 1), (GroundElement("b", (F(1),)),), frozenset(),
            __import__("conftest").ALPHA_INV_SQRT2,
        )
        p = tmp_path / "s.json"
        wsave(S, p)
        code, obj = run(
            capsys, "construct", "power", "--structure", str(p),
            "--base", "b", "--mu", "1/2", "-n", "1",
        )
        assert code == 0
        assert all(c["pass"] for c in obj["checks"])
        assert len(obj["copies"]) >= 1

    def test_basis_cli(self, capsys, tmp_path):
        from bicolor.colored import ColoredStructure
        from bicolor.pregeom import Backend, GroundElement, LINEAR
        from fractions import Fraction as F
        from bicolor.workbench import save as wsave

        S = ColoredStructure(
            Backend(LINEAR, 3),
            (
                GroundElement("b1", (F(1), F(0), F(0))),
                GroundElement("b2", (F(0), F(1), F(0))),
            ),
            frozenset(),
            ALPHA_HALF,
        )
        p = tmp_path / "s.json"
        wsave(S, p)
        code, obj = run(
            capsys, "construct", "basis", "--structure", str(p),
            "--base", "b1,b2", "-n", "2",
        )
        assert code == 0
        assert sorted(obj["new"]) == ["g1", "g2"]

    def test_semigeneric_cli(self, capsys, tmp_path):
        from bicolor.colored import empty_structure
        from bicolor.workbench import build_generic, save as wsave, task_catalog

        S = build_generic(empty_structure(ALPHA_HALF, 0), 10, 2, 11)
        B = [t for t in task_catalog(ALPHA_HALF, 1) if t.task_id == "colored-point"][0].big
        sp, bp = tmp_path / "s.json", tmp_path / "b.json"
        wsave(S, sp)
        wsave(B, bp)
        code, obj = run(
            capsys, "audit", "semigeneric", "--structure", str(sp),
            "--task", str(bp), "--map", "", "-n", "2",
        )
        assert code == 0
        assert obj["pass"] is True


class TestCliEdgeCases:
    def test_usage_error_maps_to_one(self, capsys):
        assert main(["delta"]) == 1  # missing required --set
        capsys.readouterr()

    def test_unknown_command_maps_to_one(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_match_must_cover_base(self, capsys, tmp_path):
        from conftest import ALPHA_ONE
        from bicolor.colored import ColoredStructure
        from bicolor.pregeom import Backend, GroundElement, LINEAR
        from fractions import Fraction as F

        M = ColoredStructure(
            Backend(LINEAR, 1), (GroundElement("x", (F(1),)),), frozenset(), ALPHA_ONE
        )
        p = tmp_path / "m.json"
        save(M, p)
        code, obj = run(
            capsys, "amalgam", "-1", str(p), "-2", str(p), "--base", "x",
            "--match", "y=x",
        )
        assert code == 1

    def test_loaded_structures_recompute_certificates(self, tmp_path):
        from test_colored import witness_structure
        from bicolor.workbench import load as wload, save as wsave
        from bicolor.colored import in_k_plus

        S = witness_structure()
        assert in_k_plus(S)
        p = tmp_path / "w.json"
        wsave(S, p)
        T = wload(p)
        assert T._k_plus is None  # never trusted across round-trips
        assert in_k_plus(T)


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:16]


def _plain_points(alpha, rows):
    from bicolor.colored import ColoredStructure
    from bicolor.pregeom import Backend, GroundElement, LINEAR
    from fractions import Fraction as F

    elems = tuple(GroundElement(i, tuple(F(x) for x in vec)) for i, vec in rows)
    return ColoredStructure(Backend(LINEAR, len(rows[0][1])), elems, frozenset(), alpha)


class TestConstructGoldenBytes:
    """stdout and `--out` bytes of every `bicolor construct` op, pinned by
    sha256 prefix.  `steps_back` lists, newest first, the checks each earlier
    change moved to certified and the stdout digest before it: putting those
    methods back to exhaustive, step by step, reproduces each earlier digest,
    and nothing else differs.  The newest step (GAP, POWER, EXACT, ZERO)
    moved the value checks, each copy's delta and the union's delta, which
    the whole-curve lemma reads off the moment curve where reducers computed
    them.  The fresh-block lemma certifies ambient K+ and anchor closedness
    of every patch here: over one point, over two points
    with k - s = 3 (s = 7, k = 10), and past BLOCK_PROFILE_LIMIT in the
    17-point patch at 1/sqrt(2) (s = 12), whose two checks were certified
    before it too, by the free-union DP on a closed-form table that is gone;
    the row ids name what each row pinned when it was added.  Before, the
    DP decided them exhaustively (step FRESH).  Before that, the subset
    checks (genericity, interior, minimal pair, small sets) were swept, not
    certified by the moment-shape certificate first.  A basis extension's
    all_bases is certified by the moment curve (`construct._on_curve`) and
    was swept before.  The 17-point patch's stdout had
    `OLD_PAST_LIMIT_DIGEST` when its delta_gap was computed, its genericity
    swept and its other three certified checks searched or sampled
    (`test_past_limit_old_methods`)."""

    OLD_PAST_LIMIT_DIGEST = "2882e221027cc41b"
    OLD_PAST_LIMIT_METHODS = {
        "delta_gap": "exhaustive", "generic_position": "exhaustive", "interior_condition": "sampled",
        "anchor_closed": "exhaustive", "ambient_k_plus": "exhaustive",
    }
    GAP = ("delta_gap",)
    POWER = ("per_copy_gap", "power_gap")
    EXACT = ("delta_exact",)
    ZERO = ("per_copy_gap", "zero_gap")
    FRESH = ("anchor_closed", "ambient_k_plus")
    PATCH = ("generic_position", "interior_condition")
    RATMIN = ("generic_position", "minimal_pair")
    SMALL = ("small_sets_closed",)

    QUAD = '{"kind":"quadratic","a":0,"b":1,"c":2,"d":2}'
    INPUTS = {
        "irr": lambda: _plain_points(ALPHA_INV_SQRT2, [("b", (1,))]),
        "irr6": lambda: _plain_points(Alpha.quadratic(0, 1, 6, 2), [("b", (1,))]),
        "irr2": lambda: _plain_points(ALPHA_INV_SQRT2, [("b1", (1, 0)), ("b2", (0, 1))]),
        "rat": lambda: _plain_points(ALPHA_TWO_THIRDS, [("b", (1,))]),
        "basis": lambda: _plain_points(ALPHA_HALF, [("b1", (1, 0, 0)), ("b2", (0, 1, 0))]),
        "pool": lambda: _plain_points(
            ALPHA_HALF, [(f"y{i}", tuple(int(i == j) for j in range(5))) for i in range(5)]
        ),
    }

    @pytest.mark.parametrize(
        "structure, argv, stdout_digest, out_digest, steps_back",
        [
            ("irr", ["patch", "--base", "b", "--epsilon", "1/3"],
             "0f738337156fa150", "1aae00673358b542",
             [(GAP, "07adc552299b5151"), (FRESH, "57550cb261f35314"), (PATCH, "2a26e57eb2094543")]),
            ("irr6", ["patch", "--base", "b", "--epsilon", "1/10"],
             "886b795ddec6189a", "320bd2e7b829c4b9",
             [(GAP, "41e83a5d2f7546ad"), (FRESH, "7f69048563b54850"), (PATCH, "010af60db2cbdd6d")]),
            ("irr2", ["patch", "--base", "b1,b2", "--epsilon", "1/10"],
             "ccd922e0ce1ca135", "04388e70e45f38ed",
             [(GAP, "15e86a6686a49f86"), (FRESH, "e02dc559bda5cdb5"), (PATCH, "f8c9712d883152ed")]),
            ("irr", ["patch", "--base", "b", "--epsilon", "1/20"],
             "c2ace9de00d8fdb9", "50cee748c5e0d4a5",
             [(GAP, "201376e9cc6bca9b"), (("generic_position",), "02eb834b97a4be9c")]),
            ("irr", ["power", "--base", "b", "--mu", "1/2", "-n", "2"],
             "2c7065dd9b40caae", "50cd8d331634820a",
             [(POWER, "9e3cec42aa89b00e"), (FRESH, "f7d2daae29ca0041"), (SMALL, "610ffd03c9556a0e")]),
            ("rat", ["ratmin", "--base", "b", "-t", "0"],
             "21e2e33a00146205", "86c4bd84e76ae430",
             [(EXACT, "78497156e2a9215f"), (FRESH, "87c5183e6c42dc9a"), (RATMIN, "8fc89e4434258d5e")]),
            ("rat", ["ratmin", "--base", "b", "-t", "1"],
             "3ef2d9e5bccc9ed3", "bce08e5479282e13",
             [(EXACT, "174f1cd6cdcec83a"), (FRESH, "9a663936e60d570b"), (RATMIN, "667315bcd54b9278")]),
            ("rat", ["ratzero", "--base", "b", "-t", "0"],
             "ee85fec353d1b44f", "cea836df65cc255f",
             [(ZERO, "4232239b39f2a0d1"), (FRESH, "99cd6d3736981d8c"), (SMALL, "1e19520c7b0237c5")]),
            (None, ["chain", "--alpha", QUAD, "--depth", "2", "--ambient-budget", "32"],
             "1a33c4d136abe46d", "f05197bccdc4049a",
             [(("generic_1", "minimal_pair_1", "generic_2", "minimal_pair_2"), "947d6dbb3d1dc971")]),
            ("basis", ["basis", "--base", "b1,b2", "-n", "2"],
             "a47b1435666273de", "5e3f3f19d55878c0", [(("all_bases",), "601ee901c94bbfbd")]),
            ("pool", ["dsystem", "--family", "y0;y1;y2;y3", "-n", "3"],
             "fb4ee8ee5fb3b5e3", None, []),
        ],
        ids=[
            "patch", "patch-closed-form", "patch-two-point-base", "patch-past-block-limit",
            "power", "ratmin-t0", "ratmin-t1", "ratzero", "chain", "basis", "dsystem",
        ],
    )
    def test_bytes(self, capsys, tmp_path, structure, argv, stdout_digest, out_digest, steps_back):
        argv = ["construct", *argv]
        if structure:
            p = tmp_path / "in.json"
            save(self.INPUTS[structure](), p)
            argv += ["--structure", str(p)]
        out = tmp_path / "out.json"
        if out_digest:
            argv += ["--out", str(out)]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert _digest(stdout.encode()) == stdout_digest
        if out_digest:
            assert _digest(out.read_bytes()) == out_digest
        obj = json.loads(stdout)
        for moved, digest in steps_back:
            for c in obj["checks"]:
                if c["name"] in moved:
                    assert c["method"] == "certified"
                    c["method"] = "exhaustive"
            assert _digest(canonical_dumps(obj).encode()) == digest

    def test_past_limit_old_methods(self, capsys, tmp_path):
        p = tmp_path / "in.json"
        save(self.INPUTS["irr"](), p)
        code, obj = run(capsys, "construct", "patch", "--base", "b", "--epsilon", "1/20", "--structure", str(p))
        assert code == 0
        methods = {c["name"]: c["method"] for c in obj["checks"] if c["method"] != "exhaustive"}
        assert methods == dict.fromkeys(self.OLD_PAST_LIMIT_METHODS, "certified")
        for c in obj["checks"]:
            c["method"] = self.OLD_PAST_LIMIT_METHODS.get(c["name"], c["method"])
        assert _digest(canonical_dumps(obj).encode()) == self.OLD_PAST_LIMIT_DIGEST
