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
expected unit vectors.  The placement stays in integers: `Coordinates`
returns each point's coordinates as the integer payload (den, nums) of the
coordinate vector, placing nums at the point's columns gives the payload
of the placed point, the unit vectors are compared as payloads, and M is
built from the payloads (`ColoredStructure.from_payloads`), which make
each point's `Fraction` vector once.

Freeness and the rank identity are checked on the result.  The identity
reads rank(B), rank(M1) and rank(M2) off the greedy bases just built: each
is a basis (a point joins it iff its row grows the span of those before,
and every point of its set is tried), so its size is the exact rank.  Only
rank(M), the rank of what was placed, can disagree, and it is computed
afresh from M's rows.  Freeness, dim(part2 / B) = dim(part2 / part1), is
read off one reducer of B in M and one clone of it grown by part1.  The
lemma's three conclusions are then reported `certified`, and M is certified
in K+ with the first side's memoized answers, the second side's memoized
closed sets and both parts closed (`colored.certify_free_amalgam`).
Failures raise, they are never returned.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .pregeom import FREE, LINEAR, Coordinates, GroundElement
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
    """part1 and part2 intersect exactly in base and are dim-independent over
    it: dim(part2 / base) = dim(part2 / part1), read off one reducer of the
    base and a clone of it grown by part1 (always, on the free backend)."""
    p1 = M.check_ids(part1)
    p2 = M.check_ids(part2)
    b = M.check_ids(base)
    if (p1 & p2) != b:
        return False
    if M.backend.kind == FREE:
        return True
    over_b = M.reducer_for(b)
    over_p1 = over_b.clone()
    for eid in sorted(p1 - b):
        over_p1.add(M.introw(eid))
    rows = [M.introw(eid) for eid in sorted(p2 - b)]
    return sum(map(over_b.add, rows)) == sum(map(over_p1.add, rows))


def _greedy_basis(S: ColoredStructure, ids, start=None):
    """Deterministic basis ids (sorted-id greedy) extending `start` ids."""
    red = S.reducer_for(()) if start is None else start[0].clone()
    chosen = [] if start is None else list(start[1])
    for eid in sorted(ids):
        if red.add(S.introw(eid)):
            chosen.append(eid)
    return red, chosen


def _coords(S: ColoredStructure, basis_ids, ids):
    """Integer coordinates (den, nums) of each point of `ids` over the basis
    (`Coordinates`), in order, from the integer payloads S caches."""
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
    again, and M2's memoized closed sets under their new names, which are
    closed in it (see the module's lemma and `colored`).
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
    colored = M1.colored | {right_name[i] for i in M2.colored}

    if M1.backend.kind == FREE:
        M = M1.extended([GroundElement(names[i]) for i in sorted(M2.id_set - b2)], colored)
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
        ambient = ranks = r1 + r2 - r0

        def place(coords, offsets):
            m, nums = coords
            row = [0] * ambient
            for x, off in zip(nums, offsets):
                row[off] = x
            return m, row

        off1 = list(range(r1))
        off2 = list(range(r0)) + list(range(r1, ambient))
        ids1 = M1.ids_sorted
        ids2 = [i for i in M2.ids_sorted if i not in b2]
        placed = {i: place(c, off1) for i, c in zip(ids1, _coords(M1, basis1, ids1))}
        for i, c in zip(ids2, _coords(M2, basis2, ids2)):
            placed[right_name[i]] = place(c, off2)
        units = [(b, off) for b, off in zip(basis1, off1)]
        units += [(right_name[b], off) for b, off in zip(basis2, off2)]
        for eid, off in units:
            if placed[eid] != place((1, [1]), [off]):
                raise InvariantError(f"basis point {eid!r} is not unit vector {off}")
        M = ColoredStructure.from_payloads(ambient, placed, colored, M1.alpha)

    inj1 = EmbeddingMap.identity(M1.ids_sorted)
    inj2 = EmbeddingMap(tuple((eid, right_name[eid]) for eid in M2.id_set))
    part1 = M1.id_set
    part2 = frozenset(right_name.values())
    base = frozenset(b1)

    checks = [Check("parts_free_over_base", verify_free(M, part1, part2, base))]
    if M.backend.kind == LINEAR:
        checks.append(Check("rank_identity", M.reducer_for(M.id_set).rank == ranks))
    bad = [c.name for c in checks if not c.passed]
    if bad:
        raise InvariantError(f"amalgam verification failed: {bad}")
    certify_free_amalgam(M, M1, M2.renamed(right_name))
    lemma = [
        Check(name, True, method="certified")
        for name in ("in_k_plus", "left_injection_strong", "right_injection_strong")
    ]
    return AmalgamResult(structure=M, left=inj1, right=inj2, checks=lemma + checks)
