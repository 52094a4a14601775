#!/usr/bin/env python3
"""Explore the shrinking-window approximation pairs behind minimal-pair
chains for a quadratic irrational coefficient.

    python scripts/chain_windows.py --alpha '{"kind":"quadratic","a":0,"b":1,"c":2,"d":2}' --depth 5
"""

import argparse
import sys

from bicolor.construct import chain_pairs, chain_window, minimal_pair_chain
from bicolor.exactnum import Alpha, PreDimValue


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", default='{"kind":"quadratic","a":0,"b":1,"c":2,"d":2}')
    ap.add_argument("--depth", type=int, default=4)
    ap.add_argument("--build", type=int, default=0, help="also build a chain of this depth")
    args = ap.parse_args(argv)

    alpha = Alpha.parse(args.alpha)
    print(f"alpha = {alpha.render()} ~ {float(alpha.value()):.6f}")
    for lvl, pair in enumerate(chain_pairs(alpha, args.depth), start=1):
        w = chain_window(alpha, lvl)
        drop = PreDimValue(pair.s, pair.k).value(alpha)
        print(
            f"level {lvl}: window {float(w):.6f}  pair (s,k)=({pair.s},{pair.k})  "
            f"s - alpha*k = {float(drop):.6f}"
        )
    if args.build:
        res = minimal_pair_chain(alpha, args.build, 256)
        print(f"built chain of depth {args.build}: {len(res.structure)} elements")
        for c in res.checks:
            print(f"  {c.name}: {'pass' if c.passed else 'FAIL'} [{c.method}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
