"""Shared generators and independent brute-force oracles.

The oracles recompute everything from scratch over bitmask subset tables and
never call the code paths they check.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from bicolor.colored import ColoredStructure
from bicolor.exactnum import Alpha
from bicolor.pregeom import Backend, GroundElement, LINEAR

ALPHA_ONE = Alpha.rational(1, 1)
ALPHA_HALF = Alpha.rational(1, 2)
ALPHA_TWO_THIRDS = Alpha.rational(2, 3)
ALPHA_INV_SQRT2 = Alpha.quadratic(0, 1, 2, 2)
ALPHA_GOLDEN = Alpha.quadratic(-1, 1, 2, 5)  # (sqrt(5) - 1)/2
ALL_ALPHAS = [ALPHA_ONE, ALPHA_HALF, ALPHA_TWO_THIRDS, ALPHA_INV_SQRT2]
SEARCH_ALPHAS = [ALPHA_HALF, ALPHA_TWO_THIRDS, ALPHA_INV_SQRT2, ALPHA_GOLDEN]


def random_structure(rng: random.Random, alpha: Alpha, max_n=8, max_dim=5, color_p=0.45):
    """A random linear structure; not necessarily hereditarily positive."""
    dim = rng.randint(1, max_dim)
    n = rng.randint(0, max_n)
    elements = []
    colored = set()
    for i in range(n):
        while True:
            vec = tuple(Fraction(rng.randint(-2, 3)) for _ in range(dim))
            if any(vec):
                break
        eid = f"e{i}"
        elements.append(GroundElement(eid, vec))
        if rng.random() < color_p:
            colored.add(eid)
    return ColoredStructure(Backend(LINEAR, dim), tuple(elements), frozenset(colored), alpha)


def random_dependent_structure(rng: random.Random, alpha: Alpha, n: int, dim: int, color_p=0.5):
    """n points with fractional entries, a fifth of them exact repeats or
    scaled copies of earlier points and a fifth sums with a multiple of
    another, so dependent and parallel payloads are common."""
    vecs = []
    for _ in range(n):
        pick = rng.random()
        vec = ()
        if vecs and pick < 0.2:
            vec = tuple(x * rng.choice([1, 1, -1, Fraction(1, 2), 3]) for x in rng.choice(vecs))
        elif len(vecs) > 1 and pick < 0.4:
            a, b = rng.sample(vecs, 2)
            c = Fraction(rng.randint(-2, 2), rng.randint(1, 3)) or Fraction(1)
            vec = tuple(x + c * y for x, y in zip(a, b))
        while not any(vec):
            vec = tuple(
                Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.6 else Fraction(0)
                for _ in range(dim)
            )
        vecs.append(vec)
    elements = tuple(GroundElement(f"e{i:02d}", v) for i, v in enumerate(vecs))
    colored = frozenset(e.id for e in elements if rng.random() < color_p)
    return ColoredStructure(Backend(LINEAR, dim), elements, colored, alpha)


def random_k_plus_structure(rng, alpha, max_n=8, max_dim=5, color_p=0.35):
    """Rejection-sample a hereditarily positive structure (brute-checked)."""
    while True:
        S = random_structure(rng, alpha, max_n=max_n, max_dim=max_dim, color_p=color_p)
        if brute_in_k_plus(S):
            return S


# -- bitmask oracle machinery ---------------------------------------------------


def _rank_of(vectors) -> int:
    rows = [list(v) for v in vectors]
    cols = len(rows[0]) if rows else 0
    rank = 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        rank += 1
        r += 1
    return rank


def rank_int_matrix(rows: list[list[int]], ncols: int) -> int:
    """Bareiss fraction-free rank; first-nonzero pivot by row then column."""
    if not rows:
        return 0
    m = [list(r) for r in rows]
    nrows = len(m)
    rank = 0
    prev = 1
    pr = 0
    for pc in range(ncols):
        piv_row = None
        for r in range(pr, nrows):
            if m[r][pc] != 0:
                piv_row = r
                break
        if piv_row is None:
            continue
        if piv_row != pr:
            m[pr], m[piv_row] = m[piv_row], m[pr]
        p = m[pr][pc]
        for r in range(pr + 1, nrows):
            factor = m[r][pc]
            for c in range(pc + 1, ncols):
                m[r][c] = (m[r][c] * p - factor * m[pr][c]) // prev
            m[r][pc] = 0
        prev = p
        pr += 1
        rank += 1
        if pr == nrows:
            break
    return rank


def fraction_rref(rows: list[list[Fraction]]):
    """Fraction Gauss-Jordan reduced row echelon form: (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def alpha_sign(a):
    """sign(d - alpha*c) for integers d, c, in integer arithmetic."""
    if a.is_rational:
        return lambda d, c: (a.den * d - a.num * c > 0) - (a.den * d - a.num * c < 0)
    # alpha = (aa + bb*sqrt(dd))/cc
    aa, bb, cc, dd = a.a, a.b, a.c, a.d

    def sign(d, c):
        u = cc * d - aa * c
        v = -bb * c
        if v == 0:
            return (u > 0) - (u < 0)
        if u == 0:
            return 1 if v > 0 else -1
        su = 1 if u > 0 else -1
        sv = 1 if v > 0 else -1
        if su == sv:
            return su
        lhs, rhs = u * u, v * v * dd
        if lhs == rhs:
            return 0
        return su if lhs > rhs else sv

    return sign


def _int_rows(S: ColoredStructure) -> list[list[int]]:
    """Each payload (sorted by id) with its denominators cleared."""
    rows = []
    for i in S.ids_sorted:
        vec = S.element(i).vec
        mult = math.lcm(*(x.denominator for x in vec))
        rows.append([int(x * mult) for x in vec])
    return rows


def _with_row(basis: tuple, r: list[int]) -> tuple:
    """Echelon rows `basis`, pairs (pivot, row), plus r reduced against them
    (fraction-free) when it is independent of them."""
    for p, b in basis:
        if r[p]:
            r = [b[p] * x - r[p] * y for x, y in zip(r, b)]
    p = next((j for j, x in enumerate(r) if x), None)
    return basis if p is None else basis + ((p, r),)


class SubsetTable:
    """Per-subset (dim, colored-count) table plus exact sign comparisons.

    Mask m's echelon rows are those of m without its top bit plus, when it
    is independent of them, that point's reduced row, so each mask costs one
    row reduction; `fraction_ranks` recomputes the dims with Fraction ranks.
    """

    def __init__(self, S: ColoredStructure):
        self.S = S
        self.ids = list(S.ids_sorted)
        self.n = len(self.ids)
        rows = _int_rows(S)
        colored = [i in S.colored for i in self.ids]
        bases = [()]
        self.dim = [0]
        self.col = [0]
        for mask in range(1, 1 << self.n):
            top = mask.bit_length() - 1
            prev = mask ^ (1 << top)
            bases.append(_with_row(bases[prev], rows[top]))
            self.dim.append(len(bases[mask]))
            self.col.append(self.col[prev] + colored[top])
        self._sign = alpha_sign(S.alpha)
        self._closed = None

    def fraction_ranks(self) -> list[int]:
        """dim of every mask by Fraction Gauss-Jordan rank, mask by mask."""
        vecs = [self.S.element(i).vec for i in self.ids]
        return [
            _rank_of([vecs[i] for i in range(self.n) if mask >> i & 1])
            for mask in range(1 << self.n)
        ]

    def mask_of(self, ids) -> int:
        m = 0
        for i in ids:
            m |= 1 << self.ids.index(i)
        return m

    def ids_of(self, mask) -> frozenset:
        return frozenset(self.ids[i] for i in range(self.n) if mask >> i & 1)

    def delta_sign(self, mask, over=0) -> int:
        """Sign of delta(mask / over)."""
        d = self.dim[mask | over] - self.dim[over]
        c = self.col[mask | over] - self.col[over]
        return self._sign(d, c)

    def delta_pair(self, mask, over=0):
        full = mask | over
        return (self.dim[full] - self.dim[over], self.col[full] - self.col[over])

    def closed_masks(self):
        """Bit list: closed[mask] iff every superset extension stays
        nonnegative; computed once per table."""
        if self._closed is None:
            self._closed = self._closed_masks()
        return self._closed

    def _closed_masks(self):
        n = self.n
        closed = [True] * (1 << n)
        for mask in range(1 << n):
            rest = (~mask) & ((1 << n) - 1)
            sub = rest
            while sub:
                d = self.dim[mask | sub] - self.dim[mask]
                c = self.col[mask | sub] - self.col[mask]
                if self._sign(d, c) < 0:
                    closed[mask] = False
                    break
                sub = (sub - 1) & rest
        return closed


def submasks(mask: int):
    """Every submask of mask, mask itself first and 0 last."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def brute_components(t: SubsetTable, x_mask: int) -> tuple[int, list[int]]:
    """(loops, components) of the colored points outside X, contracted by X.

    loops is the mask of those lying in span(X).  The components are the
    connected components of the others, P: the least nonempty separators,
    sets A within P with dim(A/X) + dim(P - A/X) = dim(P/X), each the
    intersection of the separators holding one point; sorted by least point.
    """
    rel = lambda m: t.dim[m | x_mask] - t.dim[x_mask]
    cand = [j for j in range(t.n) if not x_mask >> j & 1 and t.ids[j] in t.S.colored]
    loops = sum(1 << j for j in cand if rel(1 << j) == 0)
    p = sum(1 << j for j in cand) & ~loops
    seps = [a for a in submasks(p) if rel(a) + rel(p ^ a) == rel(p)]
    comps = set()
    for j in cand:
        if p >> j & 1:
            comp = p
            for a in seps:
                if a >> j & 1:
                    comp &= a
            comps.add(comp)
    return loops, sorted(comps, key=lambda m: m & -m)


def brute_in_k_plus(S: ColoredStructure) -> bool:
    t = SubsetTable(S)
    return all(t.delta_sign(m) >= 0 for m in range(1 << t.n))


def incremental_in_k_plus(S: ColoredStructure) -> bool:
    """brute_in_k_plus with one row reduction per subset instead of a rank,
    stopping at the first negative subset, so subsets of ~14 points take
    seconds (see SubsetTable)."""
    rows = _int_rows(S)
    sign = alpha_sign(S.alpha)
    colored = [i in S.colored for i in S.ids_sorted]
    basis = [()]
    col = [0]
    for mask in range(1, 1 << len(rows)):
        top = mask.bit_length() - 1
        prev = mask ^ (1 << top)
        col.append(col[prev] + colored[top])
        basis.append(_with_row(basis[prev], rows[top]))
        if sign(len(basis[mask]), col[mask]) < 0:
            return False
    return True


def brute_closure(S: ColoredStructure, a_ids, table: SubsetTable | None = None) -> frozenset:
    """Intersection of all closed supersets (least closed superset); pass
    S's table to reuse it across calls."""
    t = table or SubsetTable(S)
    closed = t.closed_masks()
    amask = t.mask_of(a_ids)
    out = (1 << t.n) - 1
    for mask in range(1 << t.n):
        if closed[mask] and (mask & amask) == amask:
            out &= mask
    return t.ids_of(out)


def brute_is_closed(S: ColoredStructure, x_ids) -> bool:
    t = SubsetTable(S)
    return t.closed_masks()[t.mask_of(x_ids)]


def brute_d_value(S: ColoredStructure, a_ids):
    """(dim, colored) pair minimizing delta over supersets of A."""
    t = SubsetTable(S)
    amask = t.mask_of(a_ids)
    best = None
    for mask in range(1 << t.n):
        if (mask & amask) != amask:
            continue
        pair = (t.dim[mask], t.col[mask])
        if best is None:
            best = pair
        else:
            d, c = pair[0] - best[0], pair[1] - best[1]
            if t._sign(d, c) < 0:
                best = pair
    return best


def _columns(T: ColoredStructure, ids) -> list[list[Fraction]]:
    """The matrix whose columns are the payloads of `ids`, row by row."""
    return [[T.element(i).vec[r] for i in ids] for r in range(T.backend.ambient_dim)]


def brute_extensions(big: ColoredStructure, small_ids, base: dict, S: ColoredStructure) -> list:
    """Every extension of the map `base` (small id -> S id) to an embedding
    of `big` into S, as sorted pair tuples, in lex order of the images of
    big's other points (sorted by id) over S's ids.  Brute force over
    itertools.permutations: a map embeds when it is injective, keeps colors
    and, on the linear backend, its source and image columns have the same
    row-reduced form (the same dependency kernel)."""
    fresh = [e.id for e in big.elements if e.id not in small_ids]
    out = []
    for image in itertools.permutations([e.id for e in S.elements], len(fresh)):
        m = {**base, **dict(zip(fresh, image))}
        if len(set(m.values())) != len(m):
            continue
        if any(big.is_colored(a) != S.is_colored(b) for a, b in m.items()):
            continue
        if big.backend.kind == LINEAR:
            order = sorted(m)
            src = fraction_rref(_columns(big, order))[0]
            if src != fraction_rref(_columns(S, [m[a] for a in order]))[0]:
                continue
        out.append(tuple(sorted(m.items())))
    return out


@pytest.fixture
def rng():
    return random.Random(0xB1C0)
