#!/usr/bin/env python3
"""Run every patch engine over a one-point base, and the rational minimal
extension over a two-point base, and print the exact gaps.

    python scripts/patch_gallery.py
"""

import sys
from fractions import Fraction

from bicolor.colored import ColoredStructure, delta, empty_structure
from bicolor.construct import (
    free_power_patch,
    rational_minimal_extension,
    rational_zero_extension,
    transcendental_patch,
)
from bicolor.exactnum import Alpha
from bicolor.pregeom import GroundElement


def one_point(alpha: Alpha) -> ColoredStructure:
    return empty_structure(alpha, ambient=1).extended(
        [GroundElement("b", (Fraction(1),))]
    )


def two_points(alpha: Alpha) -> ColoredStructure:
    return empty_structure(alpha, ambient=2).extended(
        [GroundElement("b1", (Fraction(1), Fraction(0))), GroundElement("b2", (Fraction(0), Fraction(1)))]
    )


def show(title, res, S):
    gap = res.delta_gap.value(S.alpha).render()
    names = ", ".join(f"{c.name}[{c.method[0]}]" for c in res.checks if c.passed)
    print(f"{title}: gap {gap}  checks: {names}")


def main() -> int:
    irr = Alpha.quadratic(0, 1, 2, 2)
    rat = Alpha.rational(2, 3)
    S = one_point(irr)
    for eps in (Fraction(1, 3), Fraction(1, 10)):
        res = transcendental_patch([], ["b"], eps, S)
        show(f"dirichlet patch eps={eps}", res, S)
    power = free_power_patch([], ["b"], Fraction(1, 2), 2, S)
    total = delta(power.structure, power.structure.id_set).value(irr)
    print(f"free power: {len(power.copies)} copies, delta(D*) = {total.render()}")
    R = one_point(rat)
    for t in (0, 1):
        res = rational_minimal_extension([], ["b"], t, R)
        show(f"rational minimal t={t} (k={len(res.new_ids)})", res, R)
    R2 = two_points(rat)
    res = rational_minimal_extension([], ["b1", "b2"], 2, R2)
    show(f"rational minimal t=2 over two points (k={len(res.new_ids)})", res, R2)
    zero = rational_zero_extension([], ["b"], 0, R)
    tot = delta(zero.structure, zero.structure.id_set).value(rat)
    print(f"rational zero: {len(zero.copies)} copies, delta(D*) = {tot.render()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
