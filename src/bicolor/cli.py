"""Command-line workbench.

Every command prints one canonical JSON report on stdout.  Exit codes:
0 computed (including boolean false results), 1 input or validation error,
2 internal invariant breach.

    bicolor delta --structure S.json --set a,b1,b2
    bicolor closed --structure S.json --set a
    bicolor closure --structure S.json --set a
    bicolor cln --structure S.json --set a -n 3
    bicolor minpairs --structure S.json --small a --big a,b1,b2
    bicolor dvalue --structure S.json --set a
    bicolor dindep --structure S.json --first b1 --second b2 --over a
    bicolor amalgam -1 M1.json -2 M2.json --base a,b --match a=x,b=y --out M.json
    bicolor dirichlet --alpha '{"kind":"quadratic","a":0,"b":1,"c":2,"d":2}' --epsilon 1/3
    bicolor epsilon --alpha 2/3 -n 3
    bicolor construct {patch|power|ratmin|ratzero|chain|basis|dsystem} ...
    bicolor generic --alpha 1/2 --steps 50 --budget 2 --seed 7 --out G.json
    bicolor audit {rich|semigeneric} ...
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import construct, workbench
from .amalgam import free_amalgam
from .closure import (
    closed_with_witness,
    closure_n,
    closure_with_steps,
    d_independent_report,
    d_value_with_witness,
    intrinsic_tower,
    is_intrinsic,
    is_minimal_pair,
)
from .colored import ColoredStructure, EmbeddingMap, delta, empty_structure
from .errors import InputError, InvariantError, SchemaError, WorkbenchError
from .exactnum import Alpha, dirichlet_window, epsilon_bound
from .report import canonical_dumps, checks_json


def _ids(text: str) -> list[str]:
    if not text:
        return []
    return [t for t in text.split(",") if t]


def _epsilon(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"cannot parse rational {text!r}") from None
    return value


def _match(text: str) -> EmbeddingMap:
    pairs = []
    if text:
        for item in text.split(","):
            if "=" not in item:
                raise SchemaError(f"match entry {item!r} is not of the form a=b")
            a, b = item.split("=", 1)
            pairs.append((a, b))
    return EmbeddingMap(tuple(pairs))


def _value_json(pdv, alpha) -> dict:
    val = pdv.value(alpha)
    return {
        "dimPart": pdv.dim_part,
        "colorPart": pdv.color_part,
        "value": val.render(),
        "approx": float(val),
    }


def _emit(obj, args) -> None:
    text = canonical_dumps(obj)
    sys.stdout.write(text)
    if getattr(args, "report", None):
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_structure(S, args) -> None:
    if getattr(args, "out", None):
        workbench.save(S, args.out)


def _load(args) -> ColoredStructure:
    if not args.structure:
        raise InputError("--structure FILE is required")
    return workbench.load(args.structure)


def _pair_json(pair) -> dict:
    return {"s": pair.s, "k": pair.k}


# -- command handlers ----------------------------------------------------------


def _cmd_delta(args):
    S = _load(args)
    value = delta(S, _ids(args.set), _ids(args.over or ""))
    _emit(_value_json(value, S.alpha), args)


def _cmd_closed(args):
    S = _load(args)
    ok, witness = closed_with_witness(_ids(args.set), S)
    _emit({"closed": ok, "witness": sorted(witness) if witness else []}, args)


def _cmd_closure(args):
    S = _load(args)
    result, steps = closure_with_steps(_ids(args.set), S)
    _emit({"closure": sorted(result), "steps": steps}, args)


def _cmd_cln(args):
    S = _load(args)
    result = closure_n(_ids(args.set), S, args.n)
    _emit({"cln": sorted(result), "n": args.n}, args)


def _cmd_minpairs(args):
    S = _load(args)
    small, big = _ids(args.small), _ids(args.big)
    minimal = is_minimal_pair(small, big, S)
    intrinsic = is_intrinsic(small, big, S)
    report = {"minimal": minimal, "intrinsic": intrinsic}
    if intrinsic:
        report["tower"] = [sorted(level) for level in intrinsic_tower(small, big, S)]
    _emit(report, args)


def _cmd_dvalue(args):
    S = _load(args)
    value, witness = d_value_with_witness(_ids(args.set), S)
    obj = _value_json(value, S.alpha)
    obj["attainedBy"] = sorted(witness)
    _emit(obj, args)


def _cmd_dindep(args):
    S = _load(args)
    report = d_independent_report(_ids(args.first), _ids(args.second), _ids(args.over or ""), S)
    _emit(report, args)


def _cmd_amalgam(args):
    M1 = workbench.load(args.first)
    M2 = workbench.load(args.second)
    base1 = _ids(args.base)
    match = _match(args.match) if args.match else EmbeddingMap.identity(base1)
    mapping = match.mapping
    missing = [i for i in base1 if i not in mapping]
    if missing:
        raise SchemaError(f"--match does not cover base ids {missing}")
    result = free_amalgam(M1, M2, base1, [mapping[i] for i in base1], match)
    _emit_structure(result.structure, args)
    _emit(
        {
            "checks": checks_json(result.checks),
            "injection1": result.left.to_json(),
            "injection2": result.right.to_json(),
            "size": len(result.structure),
        },
        args,
    )


def _cmd_dirichlet(args):
    alpha = Alpha.parse(args.alpha)
    pair = dirichlet_window(alpha, _epsilon(args.epsilon))
    _emit(_pair_json(pair), args)


def _cmd_epsilon(args):
    alpha = Alpha.parse(args.alpha)
    _emit(_value_json(epsilon_bound(args.n, alpha), alpha), args)


# Report fields of each structure-building op, besides its checks.
_CONSTRUCTION_KEYS = {
    "patch": ("new", "pair", "deltaGap"),
    "ratmin": ("new", "pair", "deltaGap"),
    "power": ("copies", "pair"),
    "ratzero": ("copies",),
    "basis": ("new",),
    "chain": ("levels",),
}


def _level_json(lv) -> dict:
    return {
        "d": sorted(lv.d_ids),
        "e": sorted(lv.e_ids),
        "f": sorted(lv.f_ids),
        "pair": _pair_json(lv.pair) if lv.pair else None,
    }


def _construction_json(op, result, alpha) -> dict:
    fields = {
        "new": lambda: sorted(result.new_ids),
        "pair": lambda: _pair_json(result.pair),
        "deltaGap": lambda: _value_json(result.delta_gap, alpha),
        "copies": lambda: [sorted(c) for c in result.copies],
        "levels": lambda: [_level_json(lv) for lv in result.levels],
    }
    obj = {"checks": checks_json(result.checks)}
    obj.update((key, fields[key]()) for key in _CONSTRUCTION_KEYS[op])
    return obj


def _cmd_construct(args):
    if args.op == "chain":
        alpha = Alpha.parse(args.alpha)
        result = construct.minimal_pair_chain(alpha, args.depth, args.ambient_budget)
    else:
        S = _load(args)
        alpha = S.alpha
        a, b = _ids(args.anchor or ""), _ids(args.base)
        if args.op == "patch":
            result = construct.transcendental_patch(a, b, _epsilon(args.epsilon), S)
        elif args.op == "power":
            result = construct.free_power_patch(a, b, _epsilon(args.mu), args.n, S)
        elif args.op == "ratmin":
            result = construct.rational_minimal_extension(a, b, args.t, S)
        elif args.op == "ratzero":
            result = construct.rational_zero_extension(a, b, args.t, S)
        elif args.op == "basis":
            result = construct.generic_basis_extension(a, b, args.n, S)
        elif args.op == "dsystem":
            family = [frozenset(_ids(group)) for group in args.family.split(";") if group]
            result = construct.delta_system_closed_root(family, args.n, S)
            _emit(
                {
                    "checks": checks_json(result.checks),
                    "root": sorted(result.root),
                    "indices": list(result.indices),
                    "discarded": result.discarded,
                    "discardBound": result.discard_bound,
                },
                args,
            )
            return
        else:
            raise InputError(f"unknown construct op {args.op!r}")
    _emit_structure(result.structure, args)
    _emit(_construction_json(args.op, result, alpha), args)


def _cmd_generic(args):
    alpha = Alpha.parse(args.alpha)
    if args.structure:
        seed = workbench.load(args.structure)
    else:
        seed = empty_structure(alpha, ambient=0)
    built = workbench.build_generic(seed, args.steps, args.budget, args.seed)
    _emit_structure(built, args)
    _emit(
        {
            "size": len(built),
            "ambientDim": built.backend.ambient_dim,
            "colored": sorted(built.colored),
        },
        args,
    )


def _cmd_audit(args):
    S = _load(args)
    if args.mode == "rich":
        report = workbench.audit_richness(S, args.budget)
        _emit(report.to_json(), args)
    elif args.mode == "semigeneric":
        B = workbench.load(args.task)
        f = _match(args.map)
        report = workbench.audit_semi_generic(S, f, B, args.n)
        _emit(report.to_json(), args)
    else:
        raise InputError(f"unknown audit mode {args.mode!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicolor",
        description="Exact workbench for bi-colored pregeometry expansions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, structure=True):
        if structure:
            p.add_argument("--structure", help="canonical structure JSON file")
        p.add_argument("--out", help="write the resulting structure file here")
        p.add_argument("--report", help="also write the JSON report here")
        return p

    p = common(sub.add_parser("delta", help="pre-dimension of a set"))
    p.add_argument("--set", required=True)
    p.add_argument("--over")
    p.set_defaults(func=_cmd_delta)

    p = common(sub.add_parser("closed", help="closedness with minimal witness"))
    p.add_argument("--set", required=True)
    p.set_defaults(func=_cmd_closed)

    p = common(sub.add_parser("closure", help="least closed superset"))
    p.add_argument("--set", required=True)
    p.set_defaults(func=_cmd_closure)

    p = common(sub.add_parser("cln", help="bounded closure (intrinsic extensions < n)"))
    p.add_argument("--set", required=True)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_cln)

    p = common(sub.add_parser("minpairs", help="minimal-pair and intrinsic tests"))
    p.add_argument("--small", required=True)
    p.add_argument("--big", required=True)
    p.set_defaults(func=_cmd_minpairs)

    p = common(sub.add_parser("dvalue", help="D-dimension of a set"))
    p.add_argument("--set", required=True)
    p.set_defaults(func=_cmd_dvalue)

    p = common(sub.add_parser("dindep", help="D-independence of two sets over a base"))
    p.add_argument("--first", required=True)
    p.add_argument("--second", required=True)
    p.add_argument("--over")
    p.set_defaults(func=_cmd_dindep)

    p = common(sub.add_parser("amalgam", help="free amalgam over a closed base"), structure=False)
    p.add_argument("-1", "--first", required=True, metavar="FILE")
    p.add_argument("-2", "--second", required=True, metavar="FILE")
    p.add_argument("--base", required=True, help="base ids in the first structure")
    p.add_argument("--match", help="a=b pairs mapping base ids; identity if omitted")
    p.set_defaults(func=_cmd_amalgam)

    p = common(sub.add_parser("dirichlet", help="minimal-k approximation window"), structure=False)
    p.add_argument("--alpha", required=True)
    p.add_argument("--epsilon", required=True)
    p.set_defaults(func=_cmd_dirichlet)

    p = common(sub.add_parser("epsilon", help="negative-value bound eps_n"), structure=False)
    p.add_argument("--alpha", required=True)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_epsilon)

    p = common(sub.add_parser("construct", help="constructive patch engines"))
    p.add_argument("op", choices=["patch", "power", "ratmin", "ratzero", "chain", "basis", "dsystem"])
    p.add_argument("--anchor", help="ids of the anchor set A")
    p.add_argument("--base", help="ids of the base set B")
    p.add_argument("--epsilon", help="window width (patch)")
    p.add_argument("--mu", help="target gap (power)")
    p.add_argument("-t", type=int, default=0, help="size parameter (ratmin/ratzero)")
    p.add_argument("-n", type=int, default=1, help="count (basis/dsystem/power)")
    p.add_argument("--alpha", help="coefficient (chain)")
    p.add_argument("--depth", type=int, default=1, help="chain depth")
    p.add_argument("--ambient-budget", type=int, default=64)
    p.add_argument("--family", help="semicolon-separated id groups (dsystem)")
    p.set_defaults(func=_cmd_construct)

    p = common(sub.add_parser("generic", help="bounded generic-structure builder"))
    p.add_argument("--alpha", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="rng seed (shuffles repair order)")
    p.set_defaults(func=_cmd_generic)

    p = common(sub.add_parser("audit", help="richness / semi-genericity audits"))
    p.add_argument("mode", choices=["rich", "semigeneric"])
    p.add_argument("--budget", type=int, default=1)
    p.add_argument("--task", help="structure file holding A within B (semigeneric)")
    p.add_argument("--map", help="a=x pairs embedding A into the structure (semigeneric)")
    p.add_argument("-n", type=int, default=1, help="closure bound (semigeneric)")
    p.set_defaults(func=_cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; that code is reserved for
        # invariant breaches, usage problems are input errors
        return 0 if not e.code else 1
    try:
        args.func(args)
    except InvariantError as e:
        sys.stdout.write(canonical_dumps({"error": e.code, "message": str(e)}))
        return 2
    except WorkbenchError as e:
        sys.stdout.write(canonical_dumps({"error": e.code, "message": str(e)}))
        return 1
    except OSError as e:
        sys.stdout.write(canonical_dumps({"error": "IOError", "message": str(e)}))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
