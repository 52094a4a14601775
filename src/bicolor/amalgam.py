"""Free amalgamation over a closed common base, certified by its lemma.

The amalgam is canonical: coordinates are rebuilt block-diagonally with the
base span as shared leading coordinates (target ambient is rank(M1) +
rank(M2) - rank(base)), so the two complements sit in generic position and
the rank identity dim(M) = dim(M1) + dim(M2) - dim(M0) holds exactly.

Lemma (amalgamation).  Let B <= M1 and B <= M2 with M1, M2 in K+, and let M
be a structure into which both inject as lp-embeddings, agreeing on B, with
the parts free over B.  Then M is in K+, M1 <= M and M2 <= M.  Proof: for A
within M let A1 = A n M1 and A2 = A - M1.  Then delta(A) = delta(A1) +
delta(A2 / A1) >= delta(A1) + delta(A2 / M1) = delta(A1) + delta(A2 / B) >=
0: the first step is submodularity (A1 lies in M1 and A2 misses it), the
second freeness (A2 lies in M2's part and misses B), the last B <= M2 and
M1 in K+.  The same steps give delta(A / M1) = delta(A2 / M1) >= 0, so M1
is closed in M, and by symmetry M2 is closed in M.

`free_amalgam` checks the hypotheses exactly: both sides in K+, the base
closed on both sides and the match an lp-embedding of the two base
restrictions.  Both injections are lp-embeddings because every point is
placed by its exact coordinates over its side's greedy basis (`Coordinates`
checks each in integers), and the placed basis points are checked to be the
expected unit vectors.  Freeness and the rank identity are checked on the
result.  The lemma's three conclusions are then reported `certified`, and M
is certified in K+ with the first side's memoized answers and both parts
closed (`colored.certify_free_amalgam`).  Failures raise, they are never
returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .closure import is_closed
from .colored import (
    ColoredStructure,
    EmbeddingMap,
    certify_free_amalgam,
    ensure_k_plus,
    is_lp_embedding,
)
from .errors import (
    AlphaMismatch,
    BackendMismatch,
    InvariantError,
    MatchInvalid,
    NotClosed,
)
from .pregeom import FREE, LINEAR, Backend, Coordinates, GroundElement
from .report import Check


@dataclass
class AmalgamResult:
    structure: ColoredStructure
    left: EmbeddingMap
    right: EmbeddingMap
    checks: list


def verify_strong(f: EmbeddingMap, M: ColoredStructure, N: ColoredStructure) -> bool:
    """Structure-and-color embedding whose image is closed in the target."""
    return is_lp_embedding(f, M, N) and is_closed(f.image, N)


def verify_free(M: ColoredStructure, part1, part2, base) -> bool:
    """part1 and part2 intersect exactly in base and are dim-independent over it."""
    p1 = M.check_ids(part1)
    p2 = M.check_ids(part2)
    b = M.check_ids(base)
    if (p1 & p2) != b:
        return False
    rk = lambda ids: len(ids) if M.backend.kind == FREE else M.reducer_for(ids).rank
    return rk(p1) - rk(b) == rk(p1 | p2) - rk(p2)


def _greedy_basis(S: ColoredStructure, ids, start=None):
    """Deterministic basis ids (sorted-id greedy) extending `start` ids."""
    red = S.reducer_for(()) if start is None else start[0].clone()
    chosen = [] if start is None else list(start[1])
    for eid in sorted(ids):
        if red.add(S.introw(eid)):
            chosen.append(eid)
    return red, chosen


def _coords(S: ColoredStructure, basis_ids, ids):
    """Coordinates of each point of `ids` over the basis, in order, from
    the integer payloads S caches."""
    co = Coordinates(S.backend.ambient_dim, len(basis_ids))
    for b in basis_ids:
        if co.insert(S.payload(b)) is not None:
            raise InvariantError(f"basis element {b!r} depends on the earlier ones")
    out = []
    for eid in ids:
        coeffs = co.coords(S.payload(eid))
        if coeffs is None:
            raise InvariantError(f"element {eid!r} escaped the span of its basis")
        out.append(coeffs)
    return out


def _uncollide(taken, right_ids):
    """Deterministic names for the second side's complement: the first side
    keeps its ids, and a name already taken gets R. prefixes."""
    names = {}
    used = set(taken)
    for eid in right_ids:
        new = eid
        while new in used:
            new = "R." + new
        names[eid] = new
        used.add(new)
    return names


def free_amalgam(
    M1: ColoredStructure,
    M2: ColoredStructure,
    base1_ids,
    base2_ids,
    match: EmbeddingMap,
) -> AmalgamResult:
    """M1 and M2 glued over their matched common base, complements free.

    Preconditions: the match is a color-and-structure bijection between the
    two base copies, the base is closed on both sides, and coefficients and
    backend kinds agree.  M1 keeps its ids (the second side's complement is
    renamed around them), so the left injection is the identity, and the
    amalgam inherits M1's memoized least violators, which are its answers
    again (see the module's lemma and `colored`).
    """
    if M1.backend.kind != M2.backend.kind:
        raise BackendMismatch(f"{M1.backend.kind} vs {M2.backend.kind}")
    if M1.alpha != M2.alpha:
        raise AlphaMismatch("the two sides fix different coefficients")
    b1 = M1.check_ids(base1_ids)
    b2 = M2.check_ids(base2_ids)
    ensure_k_plus(M1)
    ensure_k_plus(M2)
    if match.domain != b1 or match.image != b2:
        raise MatchInvalid("match must be a bijection between the two base copies")
    fwd = match.mapping
    for a, b in match.pairs:
        if M1.is_colored(a) != M2.is_colored(b):
            raise MatchInvalid(f"color clash on base pair {a!r} -> {b!r}")
    if len(b1) and M1.backend.kind == LINEAR:
        base_sub1 = M1.restrict(b1)
        base_sub2 = M2.restrict(b2)
        if not is_lp_embedding(match, base_sub1, base_sub2):
            raise MatchInvalid("match does not preserve quantifier-free structure")
    if not is_closed(b1, M1):
        raise NotClosed("base is not closed in the first structure")
    if not is_closed(b2, M2):
        raise NotClosed("base is not closed in the second structure")

    names = _uncollide(M1.id_set, sorted(M2.id_set - b2))
    inv = {v: k for k, v in fwd.items()}
    right_name = {eid: (inv[eid] if eid in b2 else names[eid]) for eid in M2.id_set}

    if M1.backend.kind == FREE:
        elements = [GroundElement(e.id) for e in M1.elements]
        elements += [GroundElement(right_name[e.id]) for e in M2.elements if e.id not in b2]
        colored = M1.colored | {right_name[i] for i in M2.colored}
        M = ColoredStructure(Backend(FREE), tuple(elements), frozenset(colored), M1.alpha)
    else:
        red0, basis0 = _greedy_basis(M1, b1)
        _, basis1 = _greedy_basis(M1, M1.id_set, start=(red0, basis0))
        basis0_img = [fwd[i] for i in basis0]
        red0b = M2.reducer_for(())
        for eid in basis0_img:
            if not red0b.add(M2.introw(eid)):
                raise MatchInvalid("matched base basis is dependent on the second side")
        _, basis2 = _greedy_basis(M2, M2.id_set, start=(red0b, basis0_img))
        r0, r1, r2 = len(basis0), len(basis1), len(basis2)
        ambient = r1 + r2 - r0
        zero = Fraction(0)

        def place(coeffs, offsets):
            vec = [zero] * ambient
            for c, off in zip(coeffs, offsets):
                vec[off] = c
            return tuple(vec)

        off1 = list(range(r1))
        off2 = list(range(r0)) + list(range(r1, ambient))
        ids1 = M1.ids_sorted
        ids2 = [i for i in M2.ids_sorted if i not in b2]
        elements = [
            GroundElement(i, place(c, off1)) for i, c in zip(ids1, _coords(M1, basis1, ids1))
        ]
        elements += [
            GroundElement(right_name[i], place(c, off2))
            for i, c in zip(ids2, _coords(M2, basis2, ids2))
        ]
        placed = {e.id: e.vec for e in elements}
        units = [(b, off) for b, off in zip(basis1, off1)]
        units += [(right_name[b], off) for b, off in zip(basis2, off2)]
        for eid, off in units:
            if placed[eid] != place([Fraction(1)], [off]):
                raise InvariantError(f"basis point {eid!r} is not unit vector {off}")
        colored = M1.colored | {right_name[i] for i in M2.colored}
        M = ColoredStructure(Backend(LINEAR, ambient), tuple(elements), frozenset(colored), M1.alpha)

    inj1 = EmbeddingMap.identity(M1.ids_sorted)
    inj2 = EmbeddingMap(tuple((eid, right_name[eid]) for eid in M2.id_set))
    part1 = M1.id_set
    part2 = frozenset(right_name.values())
    base = frozenset(b1)

    checks = [Check("parts_free_over_base", verify_free(M, part1, part2, base))]
    if M.backend.kind == LINEAR:
        rk = lambda T, ids: T.reducer_for(ids).rank
        identity = rk(M, M.id_set) == rk(M1, M1.id_set) + rk(M2, M2.id_set) - rk(M1, b1)
        checks.append(Check("rank_identity", identity))
    bad = [c.name for c in checks if not c.passed]
    if bad:
        raise InvariantError(f"amalgam verification failed: {bad}")
    certify_free_amalgam(M, M1, part2)
    lemma = [
        Check(name, True, method="certified")
        for name in ("in_k_plus", "left_injection_strong", "right_injection_strong")
    ]
    return AmalgamResult(structure=M, left=inj1, right=inj2, checks=lemma + checks)
