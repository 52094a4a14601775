"""Source-level guards over src/bicolor.

Only `colored` writes the private cache fields of a ColoredStructure: the
K+ verdict, the witness memo, the id map, the integer rows and the payload
index (others go through `certify_k_plus` and `certify_free_amalgam`), by
assignment, keyword, subscript or a mutating method.  `construct` builds no
random generator (its checks
are exhaustive or certified, never sampled), and `pregeom` holds the only
elimination code.  No
module but `pregeom` uses `eliminate`, so `pregeom.walk` stays the one
depth-first subset walk, and `colored` enumerates no
`itertools.combinations`, so every subset search there runs on the walk;
in `construct` only `_block_profile` walks, every subset check there being
a certificate.
No module imports another module's private (underscore-prefixed) names, and
deleted names stay deleted.  Only `construct.grow_patch` computes moment-curve
rows, so every engine shares one point layout.  The embedding search
(`workbench._SearchPlan`, `_image_of`, `_candidates`, `_extensions`) and
the amalgam's coordinates (`amalgam._coords`) read no `.vec` payload: they
work on the integer payloads a ColoredStructure caches.  No nested function calls itself: such a closure
holds a cell that refers back to it, a reference cycle that keeps the
searched structure alive until the cyclic collector runs, so the searches
leave no garbage for it.
"""

import ast
import gc
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from bicolor.closure import is_minimal_pair
from bicolor.colored import (
    ColoredStructure,
    _BudgetCounter,
    _component_min,
    colored_components,
    empty_structure,
    min_violating_witness,
)
from bicolor.construct import _block_profile
from bicolor.exactnum import Alpha
from bicolor.pregeom import Backend, GroundElement, LINEAR
from bicolor.workbench import (
    _extend_embedding,
    _strong_embeddings,
    audit_richness,
    build_generic,
    task_catalog,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "bicolor"
K_PLUS_FIELDS = {"_k_plus", "_witnesses", "_by_id", "_introws", "_by_vec"}
MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}
# Code removed for having no caller, or as a knob no caller set, the
# per-call closedness dict the witness memo replaced, construct's seeded
# subset draws, which certificates replaced, the amalgam's searched left
# check, which the amalgamation lemma replaced, the minimal-pair search
# limit, which the certificate-first subset checks replaced, the patch
# blocks' closed-form table (now a test oracle) and its separate walk, which
# the fresh-block lemma replaced and `_block_profile` absorbed, and the
# subset sweep and the five check functions around it, which the one
# certificate rule (`construct._certified`) replaced, the chain tower's
# yes/no helper, which the raising tower certificate replaced, and the
# fresh-block shape reads, which the whole-curve check `construct._on_curve`
# replaced.
DELETED_NAMES = {
    "strong_extension",
    "all_pass",
    "_column_key",
    "_extend_embedding.strong",
    "_closed",
    "_audit.closed",
    "_strong_embeddings.closed",
    "_extend_embedding.closed",
    "_minimal_pair_check",
    "_small_extensions_closed_check",
    "_verify_subsets",
    "_genericity_check",
    "_patch_interior_check",
    "_patch_checks",
    "_first_draws",
    "SAMPLE_COUNT",
    "SAMPLE_SEED",
    "EXHAUSTIVE_MINPAIR_LIMIT",
    "_moment_table",
    "_walk_table",
    "_tower_in_k_plus",
    "_moment_shape",
    "_on_moment_curve",
    "_curve_node",
}
ELIMINATION_NAMES = re.compile(r"rref|solve|kernel|bareiss|gauss|elimin|echelon|rank_int", re.I)


def k_plus_writes(source: str) -> list[int]:
    """Lines that store or change a private cache field: attribute targets,
    subscript targets on the field, mutating method calls on it,
    setattr-style calls naming the field, and constructor keywords."""
    field = lambda node: isinstance(node, ast.Attribute) and node.attr in K_PLUS_FIELDS
    lines = []
    for node in ast.walk(ast.parse(source)):
        if field(node) and isinstance(node.ctx, ast.Store):
            lines.append(node.lineno)
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            if field(node.value):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS:
                if field(node.func.value):
                    lines.append(node.lineno)
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("setattr", "__setattr__") and any(
                isinstance(a, ast.Constant) and a.value in K_PLUS_FIELDS for a in node.args
            ):
                lines.append(node.lineno)
            if any(kw.arg in K_PLUS_FIELDS for kw in node.keywords):
                lines.append(node.lineno)
    return lines


def rng_constructions(source: str) -> list[tuple[str | None, int]]:
    """(enclosing top-level function or None, line) of each Random(...) call."""
    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "Random":
                    found.append((owner, node.lineno))
    return found


def elimination_routines(source: str) -> list[str]:
    """Names of functions and classes, at any depth, named like an
    elimination routine (RREF, solvers, kernels, Bareiss, Gauss, echelon)."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and ELIMINATION_NAMES.search(node.name)
    ]


def combination_uses(source: str) -> list[int]:
    """Lines that import `combinations` by name or read it off any object."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and any(a.name == "combinations" for a in node.names)
        or isinstance(node, ast.Attribute) and node.attr == "combinations"
    )


def imported_names(source: str) -> set[str]:
    """Names imported, at any depth, by `from ... import` and `import`, and
    attributes read off any object."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ImportFrom, ast.Import)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def defined_names(source: str) -> set[str]:
    """Names of functions and classes, at any depth, `function.parameter`
    for each parameter of each function, and names assigned at module level."""
    tree = ast.parse(source)
    names = {
        target.id
        for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                names.add(f"{node.name}.{arg.arg}")
    return names


def self_calling_closures(source: str) -> list[str]:
    """`outer.inner` for each function nested in another that calls itself by
    name."""
    found = set()
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == inner.name
                for n in ast.walk(inner)
            ):
                found.add(f"{outer.name}.{inner.name}")
    return sorted(found)


def callers_of(source: str, name: str) -> list[str]:
    """Top-level functions (or None for module level) that call `name`,
    directly or read off any object, once each in source order."""
    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called == name and owner not in found:
                    found.append(owner)
    return found


def attribute_reads(source: str, owners, attr: str) -> list[tuple[str, int]]:
    """(owner, line) of each read of `.attr` inside the top-level functions
    and classes named in `owners`."""
    return [
        (top.name, node.lineno)
        for top in ast.parse(source).body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name in owners
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == attr
    ]


def private_imports(source: str) -> list[str]:
    """`module.name` for each underscore-prefixed name imported, at any depth,
    from a `bicolor` module."""
    return [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "bicolor")
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize(
    "path", sorted(p.name for p in SRC.glob("*.py") if p.name != "colored.py")
)
def test_k_plus_fields_written_only_by_colored(path):
    assert k_plus_writes((SRC / path).read_text()) == []


def test_construct_builds_no_random_generator():
    source = (SRC / "construct.py").read_text()
    assert rng_constructions(source) == []
    assert "random" not in imported_names(source)


@pytest.mark.parametrize(
    "path", sorted(p.name for p in SRC.glob("*.py") if p.name != "pregeom.py")
)
def test_elimination_only_in_pregeom(path):
    assert elimination_routines((SRC / path).read_text()) == []


@pytest.mark.parametrize(
    "path", sorted(p.name for p in SRC.glob("*.py") if p.name != "pregeom.py")
)
def test_eliminate_used_only_by_pregeom(path):
    assert "eliminate" not in imported_names((SRC / path).read_text())


def test_only_grow_patch_places_moment_points():
    assert callers_of((SRC / "construct.py").read_text(), "_moment_rows") == ["grow_patch"]


def test_only_block_profile_walks_in_construct():
    assert callers_of((SRC / "construct.py").read_text(), "walk") == ["_block_profile"]


@pytest.mark.parametrize(
    "path, owners",
    [
        ("workbench.py", ("_SearchPlan", "_image_of", "_candidates", "_extensions")),
        ("amalgam.py", ("_coords",)),
    ],
)
def test_search_and_amalgam_coordinates_read_no_payload_vectors(path, owners):
    source = (SRC / path).read_text()
    assert {top.name for top in ast.parse(source).body if getattr(top, "name", None) in owners} == set(owners)
    assert attribute_reads(source, owners, "vec") == []


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_library_reads_no_payload_vectors(path):
    # points are stored as integer payloads; `GroundElement.vec` makes the
    # Fraction vector for callers outside the library only
    source = (SRC / path).read_text()
    owners = [top.name for top in ast.parse(source).body if isinstance(top, (ast.FunctionDef, ast.ClassDef))]
    assert attribute_reads(source, owners, "vec") == []


def test_colored_enumerates_no_combinations():
    assert combination_uses((SRC / "colored.py").read_text()) == []


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_no_private_name_imported_across_modules(path):
    assert private_imports((SRC / path).read_text()) == []


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_deleted_names_stay_deleted(path):
    assert defined_names((SRC / path).read_text()) & DELETED_NAMES == set()


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_no_nested_function_calls_itself(path):
    assert self_calling_closures((SRC / path).read_text()) == []


def _garbage_after(call) -> int:
    """Objects the cyclic collector finds after one call, made with the
    collector off."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def test_searches_leave_no_reference_cycles():
    alpha = Alpha.rational(2, 3)
    rows = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 1), (1, F(1, 2), 2), (2, 0, 1)]
    S = ColoredStructure(
        Backend(LINEAR, 3),
        tuple(GroundElement(f"p{i}", tuple(map(F, v))) for i, v in enumerate(rows)),
        frozenset({"p1", "p2", "p3", "p4"}),
        alpha,
    )
    ids = list(S.ids_sorted)
    task = task_catalog(alpha, 2)[-1]
    T = build_generic(empty_structure(alpha, 0), 6, 2, 3)
    f = _strong_embeddings(task.small, T, 1)[0]
    fresh = lambda U: U.restrict(U.id_set)  # an empty witness memo, so the calls search
    calls = {
        "is_minimal_pair": lambda: is_minimal_pair(["p0"], ["p0", "p1", "p2"], S),
        "_component_min": lambda: _component_min(
            colored_components(S, ["p0"])[1][0], alpha, _BudgetCounter(10_000)
        ),
        "min_violating_witness": lambda: min_violating_witness(fresh(S), ["p5"]),
        "_block_profile": lambda: _block_profile(S, 3, ids, 3, 0),
        "_extend_embedding": lambda: _extend_embedding(task, f, fresh(T)),
        "audit_richness": lambda: audit_richness(fresh(T), 2),
    }
    assert min_violating_witness(S, ["p5"]) == {"p1", "p2", "p3", "p4"}
    assert colored_components(S, ["p0"])[1] == [ids[1:5]]
    assert {name: _garbage_after(call) for name, call in calls.items()} == dict.fromkeys(calls, 0)


def test_guards_catch_violations():
    assert k_plus_writes("S._k_plus = True\n") == [1]
    assert k_plus_writes("x = 1\nsub._witnesses, y = w, 2\n") == [2]
    assert k_plus_writes("object.__setattr__(S, '_k_plus', True)\n") == [1]
    assert k_plus_writes("ColoredStructure(b, e, c, a, _k_plus=True)\n") == [1]
    assert k_plus_writes("ok = S._k_plus\n") == []
    assert k_plus_writes("M._witnesses = dict(P._witnesses)\n") == [1]
    assert k_plus_writes("S._introws = rows\nT._by_id = {}\nU._by_vec = None\n") == [1, 2, 3]
    assert k_plus_writes("S._introws[i] = row\ndel S._by_vec[v]\nx = S._introws[i]\n") == [1, 2]
    assert k_plus_writes("M._witnesses.update(P._witnesses)\nS._by_vec.get(v)\n") == [1]
    assert k_plus_writes("ColoredStructure(b, e, c, a, _introws=rows)\n") == [1]
    src = "import random\nR = random.Random(1)\ndef f():\n    return Random(2)\n"
    assert rng_constructions(src) == [(None, 2), ("f", 4)]
    for name in ("_rref", "_rref_rows", "_solve_coeffs", "_solve_fraction_coeffs", "rank_int_matrix"):
        assert elimination_routines(f"def {name}(rows):\n    pass\n") == [name]
    assert elimination_routines("class K:\n    def kernel(self):\n        pass\n") == ["kernel"]
    assert elimination_routines("from .pregeom import solve\ndef delta(S):\n    pass\n") == []
    assert defined_names("class C:\n    def f(self, x, *, strong=True):\n        pass\n") == {
        "C", "f", "f.self", "f.x", "f.strong"
    }
    assert defined_names("A = 1\nB: int = 2\nC, D = 3, 4\ndef f():\n    E = 5\n") == {"A", "B", "f"}
    src = "def f():\n    def visit(i):\n        return visit(i - 1)\n    return visit(3)\n"
    assert self_calling_closures(src) == ["f.visit"]
    assert self_calling_closures("def visit(i):\n    return visit(i - 1)\n") == []
    src = "from .construct import _grow_patch, grow_patch\ndef f():\n    from .pregeom import _x\n"
    assert private_imports(src) == ["construct._grow_patch", "pregeom._x"]
    src = "def g():\n    return m._moment_rows(v, 2)\ndef f():\n    _moment_rows(v, 1)\n    h(_moment_rows)\n"
    assert callers_of(src, "_moment_rows") == ["g", "f"]
    assert callers_of("x = _moment_rows(v, 1)\ndef f():\n    pass\n", "_moment_rows") == [None]
    assert private_imports("from bicolor.colored import _component_min\n") == [
        "bicolor.colored._component_min"
    ]
    assert private_imports("from .pregeom import rank as _rank\nfrom os import _exit\n") == []
    assert "eliminate" in imported_names("from .pregeom import SpanReducer, eliminate\n")
    assert "eliminate" in imported_names("def f():\n    return pregeom.eliminate(p, 0)\n")
    assert "eliminate" not in imported_names("from .pregeom import walk\n")
    assert combination_uses("import itertools\nfor c in itertools.combinations(s, 2):\n    pass\n") == [2]
    assert combination_uses("from itertools import combinations, islice\n") == [1]
    assert combination_uses("from itertools import islice\nx = islice(s, 3)\n") == []
    src = "class P:\n    def f(self, S):\n        return S.element(i).vec\ndef g(e):\n    return e.vec\n"
    assert attribute_reads(src, ("P",), "vec") == [("P", 3)]
    assert attribute_reads(src, ("P", "g"), "vec") == [("P", 3), ("g", 5)]
    assert attribute_reads(src, ("h",), "vec") == []
