#!/usr/bin/env python3
"""Time large constructions and print a digest of each result.

    python scripts/large_builds.py              # small builds
    python scripts/large_builds.py --large      # the large builds
    python scripts/large_builds.py --reloaded   # queries on a reloaded patch

Each line gives the build, its point count, its wall seconds, `digest`
(sha256 of the structure's canonical `dumps` plus every check's name,
verdict and method) and `verdicts` (the same without the methods), both cut
to 16 hex digits, and the process's peak resident set size so far
(`ru_maxrss`): a high-water mark that covers every earlier build of the
run too, not the build's own memory.  Two trees that agree on `verdicts`
built the same bytes and reached the same verdicts; `digest` also tells
whether the checks were decided the same way.

The large builds are `ratmin -t 1` at 15/16 over two points, the chain
(1/sqrt(3), 5, 1024), and the free power patch over two points at 1/sqrt(3)
with mu = 2 and n = 3 (4682 points).  The default builds are the same
engines at small sizes.

`--reloaded` saves the 25-point power patch over one plain point at
1/sqrt(2) (mu = 1/2, n = 2) with `dumps`, loads it back, which drops its
K+ verdict, and times two queries on it: `in_k_plus`, which searches again,
and then `closure` of {d1}.  Each line gives the query, its wall seconds
and `answer`, the sha256 of the answer's canonical JSON cut to 16 hex
digits, then the peak resident set size so far.
"""

import argparse
import hashlib
import resource
import sys
import time
from fractions import Fraction

from bicolor.closure import closure
from bicolor.colored import empty_structure, in_k_plus
from bicolor.construct import free_power_patch, minimal_pair_chain, rational_minimal_extension
from bicolor.exactnum import Alpha
from bicolor.pregeom import GroundElement
from bicolor.report import canonical_dumps
from bicolor.workbench import dumps, loads

INV_SQRT3 = Alpha.quadratic(0, 1, 3, 3)
INV_SQRT2 = Alpha.quadratic(0, 1, 2, 2)


def two_points(alpha: Alpha):
    units = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    return empty_structure(alpha, ambient=2).extended(
        [GroundElement(f"b{i + 1}", vec) for i, vec in enumerate(units)]
    )


def ratmin(num: int, den: int, t: int):
    return lambda: rational_minimal_extension([], ["b1", "b2"], t, two_points(Alpha.rational(num, den)))


def chain(alpha: Alpha, depth: int, budget: int):
    return lambda: minimal_pair_chain(alpha, depth, budget)


def power(alpha: Alpha, mu, n: int):
    return lambda: free_power_patch([], ["b1", "b2"], mu, n, two_points(alpha))


SMALL = {
    "ratmin-2/3-t1-two-points": ratmin(2, 3, 1),
    "chain-1/sqrt3-3-64": chain(INV_SQRT3, 3, 64),
    "power-1/sqrt3-1/2-2-two-points": power(INV_SQRT3, Fraction(1, 2), 2),
}
LARGE = {
    "ratmin-15/16-t1-two-points": ratmin(15, 16, 1),
    "chain-1/sqrt3-5-1024": chain(INV_SQRT3, 5, 1024),
    "power-1/sqrt3-2-3-two-points": power(INV_SQRT3, Fraction(2), 3),
}


def digests(res) -> tuple[str, str]:
    structure = dumps(res.structure)
    checks = [c.to_json() for c in res.checks]
    full = structure + canonical_dumps(checks)
    bare = structure + canonical_dumps([{k: v for k, v in c.items() if k != "method"} for c in checks])
    return tuple(hashlib.sha256(text.encode()).hexdigest()[:16] for text in (full, bare))


def peak_rss() -> str:
    """The process's peak resident set size so far, `ru_maxrss` (KiB on Linux)."""
    return f"peak RSS so far {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024} MB"


def reloaded_patch_queries():
    base = empty_structure(INV_SQRT2, ambient=1).extended([GroundElement("b", (Fraction(1),))])
    S = loads(dumps(free_power_patch([], ["b"], Fraction(1, 2), 2, base).structure))
    name = "reloaded-power-1/sqrt2-1/2-2"
    for query, ask in (("in_k_plus", lambda: in_k_plus(S)), ("closure(d1)", lambda: sorted(closure(["d1"], S)))):
        t0 = time.perf_counter()
        answer = ask()
        seconds = time.perf_counter() - t0
        digest = hashlib.sha256(canonical_dumps(answer).encode()).hexdigest()[:16]
        print(f"{name} {query}: {len(S)} points, {seconds:.2f}s, answer {digest}, {peak_rss()}", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--large", action="store_true", help="run the large builds instead of the small ones")
    ap.add_argument("--reloaded", action="store_true", help="time the queries on the reloaded power patch")
    args = ap.parse_args(argv)
    if args.reloaded:
        reloaded_patch_queries()
        return 0
    for name, build in (LARGE if args.large else SMALL).items():
        t0 = time.perf_counter()
        res = build()
        seconds = time.perf_counter() - t0
        digest, verdicts = digests(res)
        print(f"{name}: {len(res.structure)} points, {seconds:.2f}s, digest {digest}, verdicts {verdicts}, "
              f"{peak_rss()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
